"""End-to-end decomposition: round trips, transport, and refusals."""

import json

import pytest

import chevalley.decomposer as decomposer
from chevalley.autos import graph_data
from chevalley.decomposer import (
    CertifyError,
    certify,
    forge_random,
    forge_random_parts,
    spanning_params,
    spec_from_elements,
    spec_from_json,
    strictly_inner_element,
)
from chevalley.group import from_word, group_for, unipotent
from chevalley.linalg import (
    identity,
    is_identity,
    local_diag,
    mat_map,
    mat_mul,
    mat_scale,
    matrix,
    ring_invert,
)
from chevalley.rings import ring_automorphisms, ring_make
from chevalley.roots import diagram_symmetries

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
    """L (g rho(m) g^-1) L^-1 on one matrix: rho entrywise, then conjugation
    by the group element g, then by the graph matrix L of delta."""
    if rho is not None:
        m = mat_map(rho, m)
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
    assert all(a == b for a, b in cert.rho)
    assert all(cert.apply(alg, ring, r, t) == unipotent(alg, ring, r, t).mat
               for r in sysm.roots for t in ring.elements())
    assert cert.factors[0].delta == tuple(range(sysm.rank))


@pytest.mark.parametrize("system,ring_name", ROUND_TRIP_CONFIGS)
def test_round_trip_recovers_planted_components(system, ring_name):
    for seed in range(8):
        spec, planted = forge_random_parts(system, ring_name, seed)
        cert = certify(spec)
        assert cert.lambda_mat == planted["lambda"], (system, ring_name, seed)
        assert cert.rho == planted["rho"], (system, ring_name, seed)
        # the conjugator is only determined up to the center, so compare by
        # action: certify already replayed every generator image exactly
        assert cert.report["generators_replayed"] > 0


@pytest.mark.parametrize("system,ring_name", [("B3", "Z/3"), ("C3", "Z/3")])
def test_rank3_round_trip_recovers_planted_components(system, ring_name):
    for seed in range(3):
        spec, planted = forge_random_parts(system, ring_name, seed)
        cert = certify(spec)
        assert cert.lambda_mat == planted["lambda"], (system, ring_name, seed)
        assert cert.rho == planted["rho"], (system, ring_name, seed)


def test_d4_round_trip_recovers_planted_components():
    spec, planted = forge_random_parts("D4", "Z/2", 0)
    cert = certify(spec)
    assert cert.lambda_mat == planted["lambda"]
    assert cert.rho == planted["rho"]


@pytest.mark.parametrize("system,ring_name", [
    ("A2", "Z/4"), ("A2", "Z/2"), ("B2", "Z/2"), ("A2", "Z/9"),
])
def test_round_trip_without_recovery_regime(system, ring_name):
    for seed in range(4):
        spec, planted = forge_random_parts(system, ring_name, seed)
        cert = certify(spec)
        assert cert.lambda_mat == planted["lambda"]
        assert cert.rho == planted["rho"]


def test_product_ring_factor_transport():
    transported = 0
    for seed in range(12):
        spec, planted = forge_random_parts("A2", "Z/3xZ/3", seed)
        cert = certify(spec)
        assert cert.rho == planted["rho"]
        assert cert.lambda_mat == planted["lambda"]
        if [f.source_idempotent for f in cert.factors] != \
           [f.target_idempotent for f in cert.factors]:
            transported += 1
    # the swap automorphism of the ring should show up in some seeds
    assert transported >= 2


def test_fully_loaded_standard_automorphism_over_f4():
    sysm, alg = group_for("A2")
    ring = ring_make("F4")
    frob = next(a for a in ring_automorphisms(ring) if not a.is_identity)
    g = from_word(alg, ring, (("x", (1, 1), 3), ("w", (1, 0), 1),
                              ("h", (0, 1), 2), ("x", (0, -1), 2)))
    table = {(r, t): standard_image(alg, ring, unipotent(alg, ring, r, t).mat,
                                    delta=diagram_symmetries(sysm)[1], g=g, rho=frob)
             for r in sysm.roots for t in spanning_params(ring)}
    cert = certify(spec_from_elements("A2", ring, table))
    fc = cert.factors[0]
    assert fc.delta == (1, 0)
    assert dict(fc.rho) == dict(frob.table)
    assert len(fc.conjugator_word) > 0


def test_pure_graph_swap_detected():
    sysm, alg = group_for("A2")
    ring = ring_make("Z/5")
    table = {(r, t): standard_image(alg, ring, unipotent(alg, ring, r, t).mat,
                                    delta=diagram_symmetries(sysm)[1])
             for r in sysm.roots for t in spanning_params(ring)}
    cert = certify(spec_from_elements("A2", ring, table))
    assert cert.factors[0].delta == (1, 0)
    assert all(a == b for a, b in cert.rho)


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
    assert back == spec


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
    import random as _random

    sysm, alg = group_for("B2")
    ring = ring_make("Z/5")
    rng = _random.Random(77)
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
            assert got.mul(x).mul(got.inv()) == g.mul(x).mul(g.inv())


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


def test_forge_is_deterministic():
    a = forge_random("A2", "Z/5", 5)
    b = forge_random("A2", "Z/5", 5)
    c = forge_random("A2", "Z/5", 6)
    assert a == b
    assert a != c


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
    if not ring.is_field:
        basis.insert(0, flat(mat_scale(ring, ring.from_int(ring.residue_char), eye)))
    tried = []

    def never_inner(alg, ring, m):
        tried.append(m)
        return None

    monkeypatch.setattr(decomposer, "_intertwiner_basis", lambda ring, pairs: basis)
    monkeypatch.setattr(decomposer, "strictly_inner_element", never_inner)
    with pytest.raises(CertifyError) as err:
        decomposer._match_local(alg, ring, honest_table("A2", ring), 0)
    assert err.value.stage == "match"
    # per diagram symmetry: the invertible vectors in basis order, a repeat
    # included, and no sum, difference or other combination of them
    want = [shear, mat_scale(ring, unit, eye), shear]
    assert tried == want * len(diagram_symmetries(sysm))


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
            residue = local if local.is_field else ring_make(f"Z/{p}")
            for delta in symmetries:
                gd = None if delta.is_identity else graph_data(alg, delta)
                twisted = decomposer._twist_table(alg, local, problem.table, gd)
                pairs = [(unipotent(alg, local, root, local.one).mat,
                          twisted[(root, local.one)]) for root in sysm.roots]
                basis = decomposer._intertwiner_basis(local, pairs)
                assert basis, (seed, problem.index, delta.perm)
                reduced = basis if local.is_field else [
                    tuple(x % p for x in vec) for vec in basis]
                assert len(local_diag(residue, reduced).pivots) == 1, \
                    (seed, problem.index, delta.perm)


def test_round_trip_inverts_candidates_only_up_to_the_first_hit(monkeypatch):
    inverted, tried = [], []
    real_invert, real_inner = decomposer.ring_invert, decomposer.strictly_inner_element

    def counting_invert(ring, m):
        inv = real_invert(ring, m)
        inverted.append(inv is not None)
        return inv

    def counting_inner(alg, ring, m):
        tried.append(m)
        return real_inner(alg, ring, m)

    monkeypatch.setattr(decomposer, "ring_invert", counting_invert)
    monkeypatch.setattr(decomposer, "strictly_inner_element", counting_inner)
    for seed in range(3):
        inverted.clear()
        tried.clear()
        spec, planted = forge_random_parts("A3", "Z/4", seed)
        assert certify(spec).lambda_mat == planted["lambda"]
        # every invertible candidate built was tried, and none was built after
        # the one that hit
        assert inverted and inverted[-1], (seed, inverted)
        assert inverted.count(True) == len(tried), (seed, inverted, len(tried))
