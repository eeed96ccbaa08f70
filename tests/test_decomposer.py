"""End-to-end decomposition: round trips, transport, and refusals."""

import dataclasses
import itertools
import json
import random
import sys

import numpy as np
import pytest

import chevalley.decomposer as decomposer
from chevalley import group, linalg
from chevalley.autos import graph_data
from chevalley.decomposer import (
    Certificate,
    CertifyError,
    certify,
    forge_parts,
    forge_random,
    forge_random_parts,
    spanning_params,
    spec_from_elements,
    spec_from_json,
    strictly_inner_element,
)
from chevalley.group import from_word, group_for, root_stack, torus_chi, unipotent
from chevalley.linalg import stack_dtype
from chevalley.rings import ProductRing, crt_split, ring_automorphisms, ring_make
from chevalley.roots import diagram_symmetries
from oracles import (
    conjugate,
    global_rho_loop,
    identity,
    is_identity,
    local_diag,
    lu_unit_diag,
    mat_mul,
    mat_scale,
    matrix,
    precheck_loop,
    replay_loop,
    residual_rho_loop,
    rho_array,
    rho_table,
    ring_invert,
    stack_rows,
    strictly_inner_loop,
    tuples,
)

ROUND_TRIP_CONFIGS = [
    ("A2", "Z/5"),
    ("B2", "Z/5"),
    ("G2", "Z/7"),
    ("A3", "Z/4"),
    ("A2", "F4"),
    ("A2", "Z/6"),
]


def honest_table(system, ring):
    sysm, alg = group_for(system)
    return {(r, t): unipotent(alg, ring, r, t).mat
            for r in sysm.roots for t in spanning_params(ring)}


def standard_image(alg, ring, m, delta=None, g=None, rho=None):
    """L (g rho(m) g^-1) L^-1 on one matrix: rho (a position array)
    entrywise, then conjugation by the group element g, then by the graph
    matrix L of delta."""
    if rho is not None:
        m = tuple(tuple(map(rho_table(ring, rho).__getitem__, row)) for row in tuples(m))
    if g is not None:
        m = mat_mul(ring, mat_mul(ring, g.mat, m), g.inv_mat)
    if delta is not None:
        lam, lam_inv = graph_data(alg, delta).matrices(ring)
        m = mat_mul(ring, mat_mul(ring, lam, m), lam_inv)
    return m


def refusal(system, ring, table, stages):
    spec = spec_from_elements(system, ring, table)
    with pytest.raises(CertifyError) as err:
        certify(spec)
    assert err.value.stage in stages, (err.value.stage, err.value.detail)
    return err.value


def test_spanning_params():
    assert spanning_params(ring_make("Z/5")) == (1,)
    assert spanning_params(ring_make("F4")) == (1, 2)
    span = spanning_params(ring_make("Z/3xZ/3"))
    assert (1, 1) in span and (1, 0) in span and (0, 1) in span
    assert spanning_params(ring_make("Z")) == (1,)
    assert spanning_params(ring_make("F16")) == (1, 2, 4, 8)
    assert spanning_params(ring_make("Z/6xF4")) == ((1, 1), (1, 0), (0, 1), (0, 2))


def test_identity_spec_gives_trivial_components():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    cert = certify(spec_from_elements("A2", ring, honest_table("A2", ring)))
    assert is_identity(ring, cert.lambda_mat)
    assert np.array_equal(cert.rho, np.arange(ring.size))
    assert all(cert.apply(alg, ring, r, t) == tuples(unipotent(alg, ring, r, t).mat)
               for r in sysm.roots for t in ring.elements())
    assert cert.factors[0].delta == tuple(range(sysm.rank))


@pytest.mark.parametrize("system,ring_name", ROUND_TRIP_CONFIGS)
def test_round_trip_recovers_planted_components(system, ring_name):
    ring = ring_make(ring_name)
    for seed in range(8):
        spec, planted = forge_random_parts(system, ring_name, seed)
        cert = certify(spec)
        assert np.array_equal(cert.lambda_mat, planted["lambda"]), (system, ring_name, seed)
        assert np.array_equal(cert.rho, rho_array(ring, planted["rho"])), (system, ring_name, seed)
        # the conjugator is only determined up to the center, so compare by
        # action: certify already replayed every generator image exactly
        assert cert.report["generators_replayed"] > 0


@pytest.mark.parametrize("system,ring_name", [("B3", "Z/3"), ("C3", "Z/3")])
def test_rank3_round_trip_recovers_planted_components(system, ring_name):
    ring = ring_make(ring_name)
    for seed in range(3):
        spec, planted = forge_random_parts(system, ring_name, seed)
        cert = certify(spec)
        assert np.array_equal(cert.lambda_mat, planted["lambda"]), (system, ring_name, seed)
        assert np.array_equal(cert.rho, rho_array(ring, planted["rho"])), (system, ring_name, seed)


def test_d4_round_trip_recovers_planted_components():
    spec, planted = forge_random_parts("D4", "Z/2", 0)
    cert = certify(spec)
    assert np.array_equal(cert.lambda_mat, planted["lambda"])
    assert np.array_equal(cert.rho, rho_array(ring_make("Z/2"), planted["rho"]))


@pytest.mark.parametrize("system,ring_name", [
    ("A2", "Z/4"), ("A2", "Z/2"), ("B2", "Z/2"), ("A2", "Z/9"),
])
def test_round_trip_without_recovery_regime(system, ring_name):
    for seed in range(4):
        spec, planted = forge_random_parts(system, ring_name, seed)
        cert = certify(spec)
        assert np.array_equal(cert.lambda_mat, planted["lambda"])
        assert np.array_equal(cert.rho, rho_array(ring_make(ring_name), planted["rho"]))


def test_product_ring_factor_transport():
    transported, ring = 0, ring_make("Z/3xZ/3")
    for seed in range(12):
        spec, planted = forge_random_parts("A2", "Z/3xZ/3", seed)
        cert = certify(spec)
        assert np.array_equal(cert.rho, rho_array(ring, planted["rho"]))
        assert np.array_equal(cert.lambda_mat, planted["lambda"])
        if [f.source_idempotent for f in cert.factors] != \
           [f.target_idempotent for f in cert.factors]:
            transported += 1
    # the swap automorphism of the ring should show up in some seeds
    assert transported >= 2


@pytest.mark.parametrize("rho_index", range(8))
def test_f4xf4_round_trips_every_ring_automorphism_and_delta(rho_index):
    """Frobenius on either factor and the factor swap, each of the 8 ring
    automorphisms of F4 x F4 under every diagram symmetry per factor,
    through forge_parts: certify finds the planted rho, lambda and deltas."""
    sysm, alg = group_for("A2")
    ring = ring_make("F4xF4")
    auts, idempotents = ring_automorphisms(ring), [lf.idempotent for lf in crt_split(ring).factors]
    assert len(auts) == 8
    g = from_word(alg, ring, (("x", (1, 1), (2, 3)), ("h", (0, 1), (2, 1))))
    for deltas in itertools.product(diagram_symmetries(sysm), repeat=2):
        spec, planted = forge_parts("A2", ring, deltas, auts[rho_index], g)
        cert = certify(spec)
        assert np.array_equal(cert.rho, auts[rho_index])
        assert np.array_equal(cert.rho, rho_array(ring, planted["rho"]))
        assert np.array_equal(cert.rho, global_rho_loop(ring, cert))
        assert np.array_equal(cert.lambda_mat, planted["lambda"])
        by_target = sorted(cert.factors, key=lambda fc: idempotents.index(fc.target_idempotent))
        assert [fc.delta for fc in by_target] == [delta.perm for delta in deltas]


@pytest.mark.parametrize("ring_name", ["Z/6", "Z/3xZ/3", "F4xF4"])
def test_global_rho_is_the_from_factors_loop(ring_name):
    # certify's one gather through crt_tables against the element-by-element
    # CrtSplit.from_factors loop it replaced; every rho is a read-only int64 array
    ring = ring_make(ring_name)
    for seed in range(6):
        cert = certify(forge_random("A2", ring_name, seed))
        assert np.array_equal(cert.rho, global_rho_loop(ring, cert)), seed
        for rho in [cert.rho] + [fc.rho for fc in cert.factors]:
            assert rho.dtype == np.int64 and not rho.flags.writeable


def test_fully_loaded_standard_automorphism_over_f4():
    sysm, alg = group_for("A2")
    ring = ring_make("F4")
    frob = ring_automorphisms(ring)[1]
    g = from_word(alg, ring, (("x", (1, 1), 3), ("w", (1, 0), 1),
                              ("h", (0, 1), 2), ("x", (0, -1), 2)))
    table = {(r, t): standard_image(alg, ring, unipotent(alg, ring, r, t).mat,
                                    delta=diagram_symmetries(sysm)[1], g=g, rho=frob)
             for r in sysm.roots for t in spanning_params(ring)}
    cert = certify(spec_from_elements("A2", ring, table))
    fc = cert.factors[0]
    assert fc.delta == (1, 0)
    assert np.array_equal(fc.rho, frob) and np.array_equal(cert.rho, frob)
    assert len(fc.conjugator_word) > 0


def test_pure_graph_swap_detected():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    table = {(r, t): standard_image(alg, ring, unipotent(alg, ring, r, t).mat,
                                    delta=diagram_symmetries(sysm)[1])
             for r in sysm.roots for t in spanning_params(ring)}
    cert = certify(spec_from_elements("A2", ring, table))
    assert cert.factors[0].delta == (1, 0)
    assert np.array_equal(cert.rho, np.arange(ring.size))


def test_recomposition_stability():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    spec, _ = forge_random_parts("A2", "Z/5", 7)
    certify(spec)
    g = from_word(alg, ring, (("x", (1, 0), 2), ("w", (0, 1), 1),
                              ("x", (-1, -1), 3)))
    table = {key: standard_image(alg, ring, m, delta=diagram_symmetries(sysm)[1], g=g)
             for key, m in spec.images}
    cert = certify(spec_from_elements("A2", ring, table))
    assert cert.report["generators_replayed"] > 0


@pytest.mark.parametrize("ring_name,primes", [("Z/6", (2, 3)), ("Z/12", (2, 3))])
def test_kernel_transport_exhaustive(ring_name, primes):
    sysm, alg = group_for("A2")
    ring = ring_make(ring_name)
    for seed in range(3):
        spec, _ = forge_random_parts("A2", ring_name, seed)
        cert = certify(spec)
        for p in primes:
            for t in range(0, ring.n, p):
                for root in sysm.roots:
                    img = cert.apply(alg, ring, root, t)
                    # generators congruent to 1 mod p must map to matrices
                    # congruent to the identity mod p
                    for i in range(alg.dim):
                        for j in range(alg.dim):
                            assert img[i][j] % p == (1 if i == j else 0) % p


# ---------------------------------------------------------------------------
# refusals: no adversarial input may produce a certificate


def test_refuses_identity_replaced_image():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    t = honest_table("A2", ring)
    t[(sysm.roots[0], ring.one)] = identity(ring, alg.dim)
    refusal("A2", ring, t, {"precheck"})


def test_refuses_parameter_doubling_on_z4():
    sysm, alg = group_for("A3")
    ring = ring_make("Z/4")
    t = {(r, s): unipotent(alg, ring, r, ring.mul(2, s)).mat
         for r in sysm.roots for s in spanning_params(ring)}
    err = refusal("A3", ring, t, {"precheck"})
    assert "bijective" in err.detail


def test_refuses_shuffled_root_labels():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    t = honest_table("A2", ring)
    for s in spanning_params(ring):
        t[((1, 0), s)], t[((1, 1), s)] = t[((1, 1), s)], t[((1, 0), s)]
        t[((-1, 0), s)], t[((-1, -1), s)] = t[((-1, -1), s)], t[((-1, 0), s)]
    refusal("A2", ring, t, {"precheck"})


def test_refuses_singular_image():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    t = honest_table("A2", ring)
    m = [list(r) for r in t[(sysm.roots[0], ring.one)]]
    m[0] = [0] * alg.dim
    t[(sysm.roots[0], ring.one)] = matrix(m)
    refusal("A2", ring, t, {"precheck"})


def test_refuses_conjugation_by_matrix_outside_group():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    m = [list(r) for r in identity(ring, alg.dim)]
    m[0][1] = 1
    m[3][6] = 2
    big = matrix(m)
    big_inv = ring_invert(ring, big)
    t = {(r, s): mat_mul(ring, mat_mul(ring, big, unipotent(alg, ring, r, s).mat),
                         big_inv)
         for r in sysm.roots for s in spanning_params(ring)}
    err = refusal("A2", ring, t, {"match"})
    assert "inner" in err.detail


def test_refuses_per_root_factor_mixing():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/3xZ/3")
    t = {}
    for r in sysm.roots:
        mix = r in ((0, 1), (0, -1))
        for s in spanning_params(ring):
            u = (s[1], s[0]) if mix else s
            t[(r, s)] = unipotent(alg, ring, r, u).mat
    refusal("A2", ring, t, {"split"})


def test_refuses_fake_length_swap_on_b2():
    sysm, alg = group_for("B2")
    ring = ring_make("Z/5")
    pos = sorted(sysm.positives, key=sysm.height)
    tau = {pos[0]: pos[1], pos[1]: pos[0], pos[2]: pos[3], pos[3]: pos[2]}
    for b, img in list(tau.items()):
        tau[sysm.negate(b)] = sysm.negate(img)
    t = {(r, s): unipotent(alg, ring, tau[r], s).mat
         for r in sysm.roots for s in spanning_params(ring)}
    refusal("B2", ring, t, {"precheck", "match"})


def test_refuses_single_root_rescaling():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    t = honest_table("A2", ring)
    for s in spanning_params(ring):
        t[(sysm.roots[0], s)] = unipotent(alg, ring, sysm.roots[0],
                                          ring.mul(2, s)).mat
    refusal("A2", ring, t, {"precheck"})


def test_refuses_non_character_diagonal():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    d = [2] + [1] * (alg.dim - 1)
    diag = matrix([[d[i] if i == j else 0 for j in range(alg.dim)]
                   for i in range(alg.dim)])
    diag_inv = ring_invert(ring, diag)
    t = {(r, s): mat_mul(ring, mat_mul(ring, diag, unipotent(alg, ring, r, s).mat),
                         diag_inv)
         for r in sysm.roots for s in spanning_params(ring)}
    refusal("A2", ring, t, {"match"})


def test_refuses_additive_non_multiplicative_parameter_map():
    sysm, alg = group_for("A2")
    ring = ring_make("F9")

    def sigma(v):
        a0, a1 = v % 3, v // 3
        return ((a0 + a1) % 3) + 3 * a1

    t = {(r, s): unipotent(alg, ring, r, sigma(s)).mat
         for r in sysm.roots for s in spanning_params(ring)}
    err = refusal("A2", ring, t, {"ringmap"})
    assert "automorphism" in err.detail


def test_refuses_inconsistent_second_generator_image():
    sysm, alg = group_for("A2")
    ring = ring_make("F4")
    t = honest_table("A2", ring)
    x = ring.additive_generators()[1]
    t[(sysm.roots[0], x)] = unipotent(alg, ring, sysm.roots[0],
                                      ring.add(x, ring.one)).mat
    refusal("A2", ring, t, {"precheck", "ringmap"})


def test_refuses_missing_image():
    ring = ring_make("Z/5")
    sysm, _ = group_for("A2")
    t = honest_table("A2", ring)
    del t[(sysm.roots[0], ring.one)]
    refusal("A2", ring, t, {"precheck"})


def test_refuses_corrupted_forged_spec():
    ring = ring_make("Z/5")
    spec = forge_random("B2", "Z/5", 3)
    table = dict(spec.images)
    key = next(iter(table))
    m = [list(r) for r in table[key]]
    m[2][3] = (m[2][3] + 1) % 5
    table[key] = matrix(m)
    refusal("B2", ring, table,
            {"precheck", "split", "match", "ringmap", "replay"})


# ---------------------------------------------------------------------------
# serialization and the inner-membership scanner


def test_spec_json_round_trip():
    spec = forge_random("A2", "Z/6", 11)
    data = json.loads(json.dumps(spec.to_json(), sort_keys=True))
    back = spec_from_json(data)
    assert back.to_json() == spec.to_json()


def test_malformed_spec_is_a_precheck_refusal():
    with pytest.raises(CertifyError) as err:
        spec_from_json({"system": "A2", "ring": "Z/5", "images": [{"bad": 1}]})
    assert err.value.stage == "precheck"
    with pytest.raises(CertifyError):
        spec_from_json({"system": "A2", "ring": "Z", "images": []})


def spec_doc(system="A2", ring_name="Z/5", seed=1):
    return json.loads(json.dumps(forge_random(system, ring_name, seed).to_json()))


def intake_refusal(data):
    with pytest.raises(CertifyError) as err:
        spec_from_json(data)
    assert err.value.stage == "precheck"
    return err.value


def test_duplicate_image_is_refused_even_when_the_wrong_one_comes_first():
    data = spec_doc()
    entry = data["images"][0]
    wrong = dict(entry, matrix=[list(row) for row in identity(ring_make("Z/5"), 8)])
    data["images"].insert(0, wrong)
    err = intake_refusal(data)
    assert "duplicate" in err.detail
    assert err.witness["key"] == {"root": entry["root"], "param": entry["param"]}


@pytest.mark.parametrize("mutate", ["short_row", "long_row", "missing_row", "not_a_list"])
def test_non_square_matrix_is_refused(mutate):
    data = spec_doc()
    m = data["images"][2]["matrix"]
    if mutate == "short_row":
        m[3].pop()
    elif mutate == "long_row":
        m[5].append(0)
    elif mutate == "missing_row":
        m.pop()
    else:
        m[0] = 7
    err = intake_refusal(data)
    assert "8x8" in err.detail
    assert err.witness["key"]["root"] == data["images"][2]["root"]
    assert err.witness["row_lengths"] != [8] * 8


@pytest.mark.parametrize("where,value", [
    ("param", True), ("param", 1.0), ("entry", True), ("entry", 1.0), ("entry", "1"),
    ("root", 1.0),
])
def test_bool_and_float_elements_are_refused(where, value):
    data = spec_doc()
    entry = data["images"][0]
    if where == "param":
        entry["param"] = value
    elif where == "entry":
        entry["matrix"][1][1] = value
    else:
        entry["root"] = [value * c for c in entry["root"]]
    err = intake_refusal(data)
    if where != "root":
        assert "not an integer" in err.detail and err.witness["value"] == value


def test_product_ring_elements_need_one_integer_per_factor():
    data = spec_doc("A2", "Z/6xF4", 0)
    assert spec_from_json(data).images
    for bad in ([1, 0, 0], [1], 1, [1, True]):
        mutated = json.loads(json.dumps(data))
        mutated["images"][0]["param"] = bad
        intake_refusal(mutated)


def test_certificate_json_has_stable_shape():
    spec = forge_random("A2", "Z/6", 2)
    cert = certify(spec)
    data = json.loads(json.dumps(cert.to_json(), sort_keys=True))
    assert set(data) == {"system", "ring", "factors", "global", "report"}
    assert set(data["global"]) == {"lambda", "lambda_inv", "conjugator",
                                   "conjugator_inv", "rho"}
    for fc in data["factors"]:
        assert set(fc) == {"ring", "source_idempotent", "target_idempotent",
                           "delta", "conjugator_word", "rho"}


def test_strictly_inner_accepts_group_words_up_to_scalar():
    sysm, alg = group_for("B2")
    ring = ring_make("Z/5")
    rng = random.Random(77)
    units = ring.units()
    for _ in range(10):
        word = []
        for _ in range(rng.randrange(0, 5)):
            kind = rng.choice(("x", "w", "h"))
            root = rng.choice(sysm.roots)
            t = ring.rand(rng) if kind == "x" else rng.choice(units)
            word.append((kind, root, t))
        g = from_word(alg, ring, tuple(word))
        scaled = matrix([[ring.mul(3, v) for v in row] for row in g.mat])
        got = strictly_inner_element(alg, ring, scaled)
        assert got is not None
        # same conjugation action as the original word
        for r in sysm.roots:
            x = unipotent(alg, ring, r, 1)
            assert conjugate(got, x) == conjugate(g, x)


@pytest.mark.parametrize("name,ring_name", [
    ("A2", "Z/4"), ("B2", "Z/5"), ("G2", "Z/7"), ("A3", "F4"), ("C3", "Z/3"),
])
def test_weyl_elements_match_their_words(name, ring_name):
    # the stack holds w^-1 for every BFS word w, from one product a layer
    sysm, alg = group_for(name)
    ring = ring_make(ring_name)
    words = decomposer._weyl_words(sysm)
    inverses = decomposer._weyl_elements(alg, ring)
    assert len(inverses) == len(words)
    assert not inverses.flags.writeable
    for word, got in zip(words, inverses):
        want = from_word(alg, ring, tuple(("w", sysm.simple(i), ring.one) for i in word))
        assert np.array_equal(got, want.inv_mat), word


def test_strictly_inner_rejects_outside_matrices():
    sysm, alg = group_for("A2")
    for ring_name in ("Z/5", "F4"):
        ring = ring_make(ring_name)
        m = [list(r) for r in identity(ring, alg.dim)]
        m[0][1] = ring.one
        m[3][6] = ring.one
        assert strictly_inner_element(alg, ring, matrix(m)) is None
        gd = graph_data(alg, diagram_symmetries(sysm)[1])
        lam, _ = gd.matrices(ring)
        assert strictly_inner_element(alg, ring, lam) is None


# --- the big-cell scan against its loop oracle ------------------------------------

SCAN_CONFIGS = [("A2", "Z/5"), ("B2", "Z/5"), ("G2", "Z/7"), ("A3", "Z/4"), ("A2", "F4"),
                ("A2", "Z/6"), ("C3", "Z/3"), ("A2", "F9"), ("A2", "Z/3xZ/3"), ("B2", "F4"),
                ("A2", "F8")]


def same_element(got, want) -> bool:
    """Both None, or the same matrix, inverse and word (== reads only mat)."""
    if got is None or want is None:
        return got is want
    return got == want and np.array_equal(got.inv_mat, want.inv_mat) and got.word == want.word


def scan_candidates(system, ring_name, seeds):
    """(local ring, m) for every candidate _match_local would try over every
    local factor of forged specs, under every diagram symmetry: the planted
    one and the wrong ones, whose candidates are mostly refused."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    for seed in seeds:
        spec = forge_random(system, ring_name, seed)
        for problem in decomposer.split_local(decomposer.precheck(spec, alg), alg, ring):
            local = problem.ring
            at_one = [stack_rows(alg, local)[(root, local.one)] for root in sysm.roots]
            for delta in diagram_symmetries(sysm):
                gd = None if delta.is_identity else graph_data(alg, delta)
                twisted = decomposer._twist_table(alg, local, problem.table, gd)
                basis = decomposer._intertwiner_basis(
                    local, root_stack(alg, local)[at_one], twisted[at_one])
                for m in basis.reshape(-1, alg.dim, alg.dim):
                    m = tuples(m)
                    if ring_invert(local, m) is not None:
                        yield local, m


@pytest.mark.parametrize("system,ring_name", SCAN_CONFIGS)
def test_strictly_inner_agrees_with_the_loop_oracle(system, ring_name):
    sysm, alg = group_for(system)
    found = refused = 0
    for ring, m in scan_candidates(system, ring_name, range(8)):
        want = strictly_inner_loop(alg, ring, m)
        assert same_element(strictly_inner_element(alg, ring, m), want)
        found += want is not None
        refused += want is None
    # a wrong diagram symmetry's candidate is refused by the scan
    assert found >= 8 and (refused > 0) == (len(diagram_symmetries(sysm)) > 1), (found, refused)


@pytest.mark.parametrize("system,ring_name", [("A2", "Z/5"), ("A2", "F4"), ("B2", "Z/9"),
                                              ("G2", "Z/4"), ("A3", "Z/2")])
def test_strictly_inner_agrees_with_the_loop_oracle_off_the_candidates(system, ring_name):
    """Scalar multiples of group words, singular matrices, and the outside
    matrices of test_strictly_inner_rejects_outside_matrices."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    n, eye = alg.dim, identity(ring, alg.dim)
    rng = random.Random(f"{system}|{ring_name}")
    units = ring.units()
    cases = []
    for _ in range(6):
        word = [(kind, rng.choice(sysm.roots),
                 ring.rand(rng) if kind == "x" else rng.choice(units))
                for kind in rng.choices(("x", "w", "h"), k=rng.randrange(0, 6))]
        g = from_word(alg, ring, tuple(word))
        cases.append(mat_scale(ring, rng.choice(units), tuples(g.mat)))
    nonunit = ring.from_int(ring.residue_char)      # zero over a field
    for k in (0, n // 2, n - 1):
        m = [list(row) for row in cases[-1]]
        m[k] = [ring.mul(nonunit, x) for x in m[k]]
        cases.append(matrix(m))
    outside = [list(row) for row in eye]
    outside[0][1] = ring.one
    outside[len(sysm.roots) // 2][n - 2] = ring.one
    cases.append(matrix(outside))
    if len(diagram_symmetries(sysm)) > 1:
        cases.append(graph_data(alg, diagram_symmetries(sysm)[1]).matrices(ring)[0])
    outcomes = []
    for m in cases:
        want = strictly_inner_loop(alg, ring, m)
        assert same_element(strictly_inner_element(alg, ring, m), want), m
        outcomes.append(want is not None)
    assert all(outcomes[:6]) and not any(outcomes[6:9]), outcomes


def planted_lu(ring, rng, n, fail_at):
    """L U for a random unit lower L and upper U whose diagonal holds units,
    but a non-unit at step ``fail_at`` (None for none): Doolittle then stops
    exactly there."""
    units = ring.units()
    nonunit = ring.from_int(ring.residue_char)      # zero over a field, p over Z/p^k
    lower = [[ring.one if i == j else ring.rand(rng) if i > j else ring.zero
              for j in range(n)] for i in range(n)]
    upper = [[rng.choice(units) if i == j else ring.rand(rng) if i < j else ring.zero
              for j in range(n)] for i in range(n)]
    if fail_at is not None:
        upper[fail_at][fail_at] = nonunit
    return mat_mul(ring, matrix(lower), matrix(upper))


@pytest.mark.parametrize("ring_name", ["Z/4", "Z/9", "Z/8", "Z/5", "F4", "F9"])
def test_batched_lu_agrees_with_the_loop_oracle(ring_name):
    """Non-unit pivots at the first, a middle and the last step, before and
    after matrices that factor; over Z/p^k the planted pivot is p, nonzero."""
    ring = ring_make(ring_name)
    rng = random.Random(ring_name)
    n = 7
    steps = [0, n // 2, n - 1, None, 0, n - 1, None]
    mats = [planted_lu(ring, rng, n, k) for k in steps]
    got = decomposer._unit_lu(ring, as_stack(ring, mats))
    want = [lu_unit_diag(ring, m) for m in mats]
    assert [w is not None for w in want] == [k is None for k in steps]
    rows, lower, upper = got
    assert rows.tolist() == [q for q, w in enumerate(want) if w is not None]
    assert [(tuples(a), tuples(b)) for a, b in zip(lower, upper)] == [
        w for w in want if w is not None]
    # a stack where every matrix fails stops at the first step none survives
    assert decomposer._unit_lu(ring, as_stack(ring, mats[:3])) is None


def test_forge_is_deterministic():
    a = forge_random("A2", "Z/5", 5)
    b = forge_random("A2", "Z/5", 5)
    c = forge_random("A2", "Z/5", 6)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


# --- conjugator candidates ------------------------------------------------------

@pytest.mark.parametrize("name", ["Z/4", "Z/9", "F4"])
def test_candidates_are_the_invertible_basis_vectors_in_order(name, monkeypatch):
    ring = ring_make(name)
    sysm, alg = group_for("A2")
    n = alg.dim
    unit = ring.units()[-1]

    def flat(m):
        return tuple(v for row in m for v in row)

    eye = identity(ring, n)
    shear = [list(row) for row in eye]
    shear[0][1] = unit
    shear = matrix(shear)
    singular = [list(row) for row in eye]
    singular[2][2] = ring.zero
    singular = matrix(singular)
    basis = [flat(singular), flat(shear), (ring.zero,) * (n * n),
             flat(mat_scale(ring, unit, eye)), flat(shear)]
    if ring.nil_degree != 1:
        basis.insert(0, flat(mat_scale(ring, ring.from_int(ring.residue_char), eye)))
    tried = []

    def never_inner(alg, ring, m):
        tried.append(m)
        return None

    table = decomposer.precheck(spec_from_elements("A2", ring, honest_table("A2", ring)), alg)
    monkeypatch.setattr(decomposer, "_intertwiner_basis", lambda ring, xs, ys: np.array(basis))
    monkeypatch.setattr(decomposer, "strictly_inner_element", never_inner)
    with pytest.raises(CertifyError) as err:
        decomposer._match_local(alg, ring, table, 0, root_stack(alg, ring))
    assert err.value.stage == "match"
    # per diagram symmetry: the invertible vectors in basis order, a repeat
    # included, and no sum, difference or other combination of them
    want = [shear, mat_scale(ring, unit, eye), shear]
    assert [tuples(m) for m in tried] == want * len(diagram_symmetries(sysm))


@pytest.mark.parametrize("system,ring_name", [
    ("A2", "Z/4"), ("A3", "Z/4"), ("B2", "Z/4"), ("A2", "Z/9"), ("A2", "F9"),
    ("A2", "Z/3xZ/3"),
])
def test_intertwiners_reduce_to_a_line_for_every_diagram_symmetry(system, ring_name):
    """The premise of the candidate rule: with the planted symmetry or a wrong
    one (B2 has none), the intertwiners of the x_root(1) are not empty and
    reduce to rank 1 over the residue field, so every invertible intertwiner
    is, mod the maximal ideal, a unit times an invertible basis vector."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    symmetries = diagram_symmetries(sysm)
    assert len(symmetries) == (1 if system == "B2" else 2)
    for seed in range(2):
        spec, _ = forge_random_parts(system, ring_name, seed)
        table = decomposer.precheck(spec, alg)
        for problem in decomposer.split_local(table, alg, ring):
            local = problem.ring
            p = local.residue_char
            residue = local if local.nil_degree == 1 else ring_make(f"Z/{p}")
            for delta in symmetries:
                gd = None if delta.is_identity else graph_data(alg, delta)
                twisted = decomposer._twist_table(alg, local, problem.table, gd)
                at_one = [stack_rows(alg, local)[(root, local.one)] for root in sysm.roots]
                basis = decomposer._intertwiner_basis(
                    local, root_stack(alg, local)[at_one], twisted[at_one])
                assert len(basis), (seed, problem.index, delta.perm)
                reduced = basis if local.nil_degree == 1 else basis % p
                assert len(local_diag(residue, reduced).pivots) == 1, \
                    (seed, problem.index, delta.perm)


def conjugated_table(ring, b, table):
    """b m b^-1 for every image m of a spec table."""
    b_inv = ring_invert(ring, b)
    return {key: mat_mul(ring, mat_mul(ring, b, m), b_inv) for key, m in table.items()}


def premise_tables(system, ring_name, seed):
    """Spec tables in the shapes the refusals workload feeds match: a forged
    spec, the same conjugated by a diagonal matrix that scales one root
    coordinate by a unit other than 1 (the diag shape) and, on A2/Z/5, by a
    unipotent matrix outside the group (the outside-conjugator shape)."""
    ring = ring_make(ring_name)
    sysm, alg = group_for(system)
    table = dict(forge_random_parts(system, ring_name, seed)[0].images)
    rng = random.Random(f"{system}/{ring_name}/{seed}")
    pos = rng.randrange(len(sysm.roots))
    unit = rng.choice([u for u in ring.units() if u != ring.one])
    diag = matrix([[(unit if i == pos else ring.one) if i == j else ring.zero
                    for j in range(alg.dim)] for i in range(alg.dim)])
    out = [table, conjugated_table(ring, diag, table)]
    if (system, ring_name) == ("A2", "Z/5"):
        outside = [list(row) for row in identity(ring, alg.dim)]
        outside[0][1], outside[3][6] = 1, 2
        out.append(conjugated_table(ring, matrix(outside), table))
    return out


@pytest.mark.parametrize("system,ring_name", [
    ("A2", "Z/4"), ("A2", "Z/5"), ("A2", "Z/8"), ("A2", "Z/9"), ("A2", "F4"), ("A2", "Z/6"),
    ("B2", "Z/4"), ("B2", "Z/5"), ("B2", "Z/9"), ("G2", "Z/4"), ("G2", "Z/7"), ("A3", "Z/4"),
    ("C3", "Z/3"),
])
def test_item_2_premise_residue_intertwiners_are_a_line_and_candidates_agree(system, ring_name):
    """The premise of ROADMAP item 2 (intertwiners by spinning one vector):
    for every local problem and diagram symmetry delta, on forged specs and
    on the diag and outside-conjugator shapes that match must refuse,
    (1) the intertwiners of the x_root(1) reduced mod p, solved over the
    residue field, form at most a line, and (2) every strictly inner
    candidate gives one (matrix, word).  Then any method that returns a
    generating set of the intertwiners gives byte-identical certificates."""
    sysm, alg = group_for(system)
    ring = ring_make(ring_name)
    for seed in range(2):
        for shape, table in enumerate(premise_tables(system, ring_name, seed)):
            spec = spec_from_elements(system, ring, table)
            stack = decomposer.precheck(spec, alg)
            inner = []   # strictly inner candidates per local problem
            for problem in decomposer.split_local(stack, alg, ring):
                local = problem.ring
                p = local.residue_char
                residue = local if local.nil_degree == 1 else ring_make(f"Z/{p}")
                at_one = [stack_rows(alg, local)[(root, local.one)] for root in sysm.roots]
                xs = root_stack(alg, local)[at_one]
                inner.append(0)
                for delta in diagram_symmetries(sysm):
                    gd = None if delta.is_identity else graph_data(alg, delta)
                    ys = decomposer._twist_table(alg, local, problem.table, gd)[at_one]
                    where = (seed, shape, problem.index, delta.perm)
                    reduced = (xs, ys) if residue is local else (xs % p, ys % p)
                    assert len(decomposer._intertwiner_basis(residue, *reduced)) <= 1, where
                    found = set()
                    basis = decomposer._intertwiner_basis(local, xs, ys)
                    for m in basis.reshape(-1, alg.dim, alg.dim):
                        if ring_invert(local, m) is None:
                            continue
                        elem = strictly_inner_element(alg, local, m)
                        if elem is not None:
                            found.add((tuples(elem.mat), elem.word))
                    assert len(found) <= 1, where
                    inner[-1] += len(found)
            # a forged spec has its planted conjugator on every factor; a shape
            # leaves the group on some factor, where match finds none
            assert min(inner) >= 1 if shape == 0 else min(inner) == 0, (seed, shape, inner)


def test_round_trip_inverts_candidates_only_up_to_the_first_hit(monkeypatch):
    inverted, tried = [], []
    real_test, real_inner = decomposer.local_invertible, decomposer.strictly_inner_element

    def counting_test(ring, m):
        held = real_test(ring, m)
        inverted.append(held)
        return held

    def counting_inner(alg, ring, m):
        tried.append(m)
        return real_inner(alg, ring, m)

    monkeypatch.setattr(decomposer, "local_invertible", counting_test)
    monkeypatch.setattr(decomposer, "strictly_inner_element", counting_inner)
    for seed in range(3):
        inverted.clear()
        tried.clear()
        spec, planted = forge_random_parts("A3", "Z/4", seed)
        assert np.array_equal(certify(spec).lambda_mat, planted["lambda"])
        # every candidate that passed the unit pivot test was tried, and none
        # was tested after the one that hit
        assert inverted and inverted[-1], (seed, inverted)
        assert inverted.count(True) == len(tried), (seed, inverted, len(tried))


# --- the batched stages against the loop oracles ---------------------------------

WITNESS_RINGS = ["Z/4", "Z/9", "Z/5", "F4", "F9", "Z/6", "Z/3xZ/3"]


def outcome(fn, *args):
    """What a stage did: ("ok", its value) or (stage, detail, witness)."""
    try:
        return "ok", fn(*args)
    except CertifyError as exc:
        return exc.stage, exc.detail, exc.witness


def as_dict(alg, ring, stack):
    """A stack in the rows of stack_rows as a dict (root, t) -> tuple matrix."""
    return {key: tuples(stack[i]) for key, i in stack_rows(alg, ring).items()}


def as_stack(ring, mats):
    return np.array(list(mats), dtype=stack_dtype(ring, len(mats[0])))


def spots(seq):
    """The first, a middle and the last item: where a defect is planted."""
    return [seq[0], seq[len(seq) // 2], seq[-1]]


def planted_prechecks(system, ring):
    """(defect, where, images) for honest images over the spanning parameters
    with one defect planted first, in the middle or last in the loop order of
    the check it aims at."""
    sysm, alg = group_for(system)
    honest = honest_table(system, ring)
    keys = list(spec_from_elements(system, ring, honest).image_dict())
    zero = matrix([[ring.zero] * alg.dim] * alg.dim)
    unit = ring.units()[-1]
    out = [("none", None, honest)]
    for key in spots(keys):
        root, g = key
        same_root = [k for k in keys if k[0] == root and k != key]
        for defect, m in (("wrong order", identity(ring, alg.dim)),
                          ("singular", zero),
                          ("repeated image", honest[(same_root or [keys[keys.index(key) - 1]])[0]]),
                          ("broken law", unipotent(alg, ring, sysm.negate(root), g).mat)):
            out.append((defect, key, {**honest, key: m}))
    out.append(("two bad orders", (keys[0], keys[-1]),
                {**honest, keys[0]: identity(ring, alg.dim), keys[-1]: zero}))
    for root in spots(sysm.roots):
        out.append(("broken commutator", root, {
            **honest, **{(root, g): unipotent(alg, ring, root, ring.mul(unit, g)).mat
                         for g in spanning_params(ring)}}))
    return out


@pytest.mark.parametrize("ring_name", WITNESS_RINGS)
def test_precheck_reports_what_the_loop_oracle_reports(ring_name):
    ring = ring_make(ring_name)
    sysm, alg = group_for("A2")
    details = set()
    for defect, where, images in planted_prechecks("A2", ring):
        spec = spec_from_elements("A2", ring, images)
        got = outcome(lambda: as_dict(alg, ring, decomposer.precheck(spec, alg)))
        want = outcome(precheck_loop, spec, alg)
        assert got == want, (defect, where)
        details.add(want[1] if want[0] == "precheck" else want[0])
    # every check refused something; over a ring with one additive generator
    # a repeat or a broken law can only show as a wrong order or commutator
    reached = {"ok", "image matrix is not invertible", "not bijective on parameters",
               "commutator pattern fails"}
    if len(spanning_params(ring)) > 1:
        reached.add("one-parameter law fails")
    assert reached <= details, details


def large_ring_plants(ring):
    """(defect, images): honest A2 images over a large ring with one defect at
    the fourth key, where three honest keys come before it in the loop: an
    image of another root (a repeat across roots), one of order |R| - 1 (a
    torus element chi(u, 1) for a generator u of the units of Z/p), the
    identity, a singular matrix; over a product, the image at the second
    generator made that at the first, so two parameters share an image."""
    sysm, alg = group_for("A2")
    honest = honest_table("A2", ring)
    keys = list(honest)
    if isinstance(ring, ProductRing):
        root, (_, first, second) = sysm.roots[0], spanning_params(ring)
        return [("repeated parameter", {**honest, (root, second): honest[(root, first)]})]
    p = ring.size
    u = next(u for u in range(2, p) if len({pow(u, k, p) for k in range(p - 1)}) == p - 1)
    return [(defect, {**honest, keys[3]: m}) for defect, m in (
        ("repeated image", honest[keys[2]]),
        ("order |R| - 1", torus_chi(alg, ring, (u, 1)).mat),
        ("order 1", identity(ring, alg.dim)),
        ("singular", matrix([[ring.zero] * alg.dim] * alg.dim)))]


@pytest.mark.parametrize("ring_name,want", [
    ("Z/1009", {"repeated image": "commutator pattern fails",
                "order |R| - 1": "not bijective on parameters",
                "order 1": "not bijective on parameters",
                "singular": "image matrix is not invertible"}),
    ("Z/31xZ/31", {"repeated parameter": "not bijective on parameters"})])
def test_precheck_reports_what_the_loop_oracle_reports_on_large_rings(ring_name, want):
    # the doubling ladder meets the identity at |R| - 1 and 1, not only at
    # powers of two, and a repeat among 961 parameters is named as the loop
    # names it, (0, 1) against (1, 0)
    ring = ring_make(ring_name)
    sysm, alg = group_for("A2")
    got = {}
    for defect, images in large_ring_plants(ring):
        spec = spec_from_elements("A2", ring, images)
        result = outcome(lambda: as_dict(alg, ring, decomposer.precheck(spec, alg)))
        assert result == outcome(precheck_loop, spec, alg), defect
        got[defect] = result[1]
    assert got == want


def test_precheck_powers_take_logarithmically_many_products(monkeypatch):
    # the orders of the A2/Z/1009 images by doubling: ceil(log2 1009) = 10
    # batched products, none for the extension over Z/n, one for the law and
    # two for the commutator pattern; the loop took one product per power
    sysm, alg = group_for("A2")
    spec = forge_random("A2", "Z/1009", 0)
    calls = []
    for module in (decomposer, group):
        clean = module.stack_mul

        def spy(ring, a, b, clean=clean):
            calls.append(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
            return clean(ring, a, b)
        monkeypatch.setattr(module, "stack_mul", spy)
    decomposer.precheck(spec, alg)
    assert len(calls) == 10 + 1 + 2 <= 2 * 10 + 3, calls
    # each doubling multiplies every power so far by one image power
    assert calls[:10] == [(min(2 ** k, 1009 - 2 ** k), 6) for k in range(10)]


def listed(found):
    """A (rho, error) pair with rho, a position array or None, as a list."""
    rho, err = found
    return (None if rho is None else rho.tolist()), err


@pytest.mark.parametrize("ring_name", WITNESS_RINGS)
def test_residual_rho_reports_what_the_loop_oracle_reports(ring_name):
    ring = ring_make(ring_name)
    sysm, alg = group_for("A2")
    spec, _ = forge_random_parts("A2", ring_name, 1)
    problems = decomposer.split_local(decomposer.precheck(spec, alg), alg, ring)
    for problem in problems:
        local = problem.ring
        units, rows = root_stack(alg, local), stack_rows(alg, local)
        conj = from_word(alg, local, (("x", sysm.roots[0], local.one),
                                      ("w", sysm.roots[1], local.one)))

        def image(m):
            return mat_mul(local, mat_mul(local, conj.mat, m), conj.inv_mat)

        honest = {key: image(tuples(units[i])) for key, i in rows.items()}
        t_major = sorted(rows, key=lambda key: (list(local.elements()).index(key[1]),
                                                sysm.roots.index(key[0])))
        def non_root(root, t):
            other = unipotent(alg, local, sysm.negate(root), local.one).mat
            return image(mat_mul(local, unipotent(alg, local, root, t).mat, other))

        cases = [("none", None, honest)]
        for root, t in spots(t_major):
            cases.append(("non-root residual", (root, t), {**honest, (root, t): non_root(root, t)}))
            cases.append(("parameter differs", (root, t), {
                **honest, (root, t): image(unipotent(alg, local, root, local.add(t, local.one)).mat)}))
        # two failures whose order differs between (t, root) and (root, t)
        last_root, last_t = t_major[len(sysm.roots) - 1], t_major[-len(sysm.roots)]
        cases.append(("two non-root residuals", (last_root, last_t), {
            **honest, last_root: non_root(*last_root), last_t: non_root(*last_t)}))
        reasons = set()
        for defect, where, table in cases:
            stack = as_stack(local, [table[key] for key in rows])
            got = decomposer._residual_rho(alg, local, conj, stack, units)
            want = residual_rho_loop(alg, local, conj, table)
            assert listed(got) == listed(want), (problem.index, defect, where)
            reasons.add(want[1]["reason"] if want[1] else "ok")
        assert {"ok", "residual is not a root element",
                "parameter image differs across roots"} <= reasons, reasons


@pytest.mark.parametrize("ring_name", WITNESS_RINGS)
def test_replay_reports_what_the_loop_oracle_reports(ring_name):
    ring = ring_make(ring_name)
    sysm, alg = group_for("A2")
    spec, _ = forge_random_parts("A2", ring_name, 1)
    cert = certify(spec)
    table = decomposer.precheck(spec, alg)
    left = mat_mul(ring, cert.lambda_mat, cert.conjugator)
    right = mat_mul(ring, cert.conjugator_inv, cert.lambda_inv)
    rho, rows, units = rho_table(ring, cert.rho), stack_rows(alg, ring), root_stack(alg, ring)
    keys = list(rows)
    for wrong in [()] + [(key,) for key in spots(keys)] + [(keys[0], keys[-1])]:
        planted = table.copy()
        for key in wrong:      # the image of the same root at another parameter
            other = ring.one if key[1] != ring.one else ring.zero
            planted[rows[key]] = table[rows[(key[0], other)]]
        got = outcome(cert.replay, alg, ring, planted, units)
        want = outcome(replay_loop, alg, ring, as_dict(alg, ring, planted), left, right, rho)
        assert got == want, wrong
        assert (got[0] == "ok") == (not wrong), wrong


# A2/Z/6 seed 0 has two factors, one twisted by the diagram flip and one not;
# B2/F4 seed 2 plants the Frobenius as rho
CERTIFIED = [("A2", "Z/6", 0), ("B2", "F4", 2)]


def certified(system, ring_name, seed):
    """(alg, ring, certificate, precheck table, root stack) of a forged spec."""
    ring = ring_make(ring_name)
    _, alg = group_for(system)
    spec, planted = forge_random_parts(system, ring_name, seed)
    if ring_name == "F4":
        assert any(t != v for t, v in planted["rho"])
    cert = certify(spec)
    return alg, ring, cert, decomposer.precheck(spec, alg), root_stack(alg, ring)


@pytest.mark.parametrize("system,ring_name,seed", CERTIFIED)
def test_certify_replays_the_certificate_it_returns(monkeypatch, system, ring_name, seed):
    replayed = []
    replay = Certificate.replay

    def recording(self, *args):
        replayed.append(self)
        return replay(self, *args)

    monkeypatch.setattr(Certificate, "replay", recording)
    alg, ring, cert, table, units = certified(system, ring_name, seed)
    assert len(replayed) == 1 and replayed[0] is cert
    n_images = len(alg.system.roots) * ring.size
    assert cert.report["generators_replayed"] == n_images
    assert cert.replay(alg, ring, table, units) == n_images
    # the single image composes like the stack, for every key
    assert all(cert.apply(alg, ring, root, t) == tuples(table[i])
               for (root, t), i in stack_rows(alg, ring).items())


def mutants(ring, cert):
    """(field, copy of cert) with one entry of lambda, lambda^-1, C and C^-1
    changed in turn, then one image of rho."""
    def bumped(m):
        rows = [list(row) for row in m]
        i, j = len(rows) // 2, 1
        rows[i][j] = ring.add(rows[i][j], ring.one)
        return np.array(rows, dtype=m.dtype)

    rho, elements, mid = cert.rho.copy(), list(ring.elements()), len(cert.rho) // 2
    rho[mid] = linalg.positions(ring, ring.add(elements[rho[mid]], ring.one))
    return [(field, dataclasses.replace(cert, **{field: bumped(getattr(cert, field))}))
            for field in ("lambda_mat", "lambda_inv", "conjugator", "conjugator_inv")
            ] + [("rho", dataclasses.replace(cert, rho=rho))]


@pytest.mark.parametrize("system,ring_name,seed", CERTIFIED)
def test_replay_refuses_every_mutated_certificate(system, ring_name, seed):
    alg, ring, cert, table, units = certified(system, ring_name, seed)
    for field, mutant in mutants(ring, cert):
        left = mat_mul(ring, mutant.lambda_mat, mutant.conjugator)
        right = mat_mul(ring, mutant.conjugator_inv, mutant.lambda_inv)
        want = outcome(replay_loop, alg, ring, as_dict(alg, ring, table), left, right,
                       rho_table(ring, mutant.rho))
        assert want[0] == "replay", field
        assert outcome(mutant.replay, alg, ring, table, units) == want, field
    assert cert.replay(alg, ring, table, units) == len(alg.system.roots) * ring.size


# --- one matrix form -------------------------------------------------------------

FORGE_API = ("identity", "mat_mul", "mat_pow", "matrix", "ring_invert")


@pytest.mark.parametrize("system,ring_name,seed", [
    ("C3", "Z/3", 11), ("A3", "Z/4", 10), ("A2", "Z/6", 3), ("A2", "Z/3xZ/3", 1)])
def test_certify_calls_none_of_the_forge_api(monkeypatch, system, ring_name, seed):
    """Every matrix in src is an array, from the images to the Certificate,
    so a warm certify calls none of the helpers linalg keeps for the
    benchmark's forge, in any module that binds them.  A3/Z/4 seed 10 plants
    a non-identity diagram symmetry, so the identity is tried and refused
    first; the last two recombine over the CRT factors."""
    spec, planted = forge_random_parts(system, ring_name, seed)
    if system == "A3":
        assert any(delta != tuple(range(len(delta))) for delta in planted["deltas"])
    certify(spec)
    calls = []
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("chevalley.")]
    for module, name in itertools.product(modules, FORGE_API):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    assert np.array_equal(certify(spec).lambda_mat, planted["lambda"])
    assert calls == []


@pytest.mark.parametrize("ring_name", ["Z/4", "Z/3xZ/3", "Z"])
def test_kept_matrices_are_read_only_and_elements_compare_by_value(ring_name):
    """Every matrix or table src memoises or stores refuses writes, and
    equal group elements built from different words compare and hash equal."""
    sysm, alg = group_for("A2")
    ring = ring_make(ring_name)
    root = sysm.roots[0]
    gd = graph_data(alg, diagram_symmetries(sysm)[-1])
    x = unipotent(alg, ring, root, ring.one)
    kept = [linalg.identity(ring, alg.dim), *alg.x_mats.values(), *alg.h_mats,
            *alg.divided_powers(root), gd.lambda_z, gd.lambda_z_inv, *gd.matrices(ring),
            x.mat, x.inv_mat, group._x_pattern(alg)[0], *linalg.ring_tables(ring_make("F4"))]
    if ring.size:
        spec, _ = forge_random_parts("A2", ring_name, 1)
        cert = certify(spec)
        kept += [m for _, m in spec.images] + [
            cert.lambda_mat, cert.lambda_inv, cert.conjugator, cert.conjugator_inv]
    for m in kept:
        assert m.flags.writeable is False
        with pytest.raises(ValueError):
            m[(0,) * m.ndim] = m[(0,) * m.ndim]

    one, two = ring.one, ring.add(ring.one, ring.one)
    pairs = from_word(alg, ring, (("x", root, one), ("x", root, two)))
    single = from_word(alg, ring, (("x", root, ring.add(one, two)),))
    swapped = from_word(alg, ring, (("x", root, two), ("x", root, one)))
    assert pairs.word != single.word
    assert pairs == single == swapped and len({pairs, single, swapped}) == 1
    assert hash(pairs) == hash(single)
    trivial = from_word(alg, ring, (("x", root, two), ("x", root, ring.neg(two))))
    assert trivial == from_word(alg, ring, ()) and hash(trivial) == hash(from_word(alg, ring, ()))
    assert pairs != x
