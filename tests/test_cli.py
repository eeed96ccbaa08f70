"""CLI contract: artifacts, exit codes, determinism, golden files."""

import hashlib
import itertools
import json
import os
import pathlib

import numpy as np
import pytest

from chevalley import cli, group, linalg, recover
from chevalley.cli import main
from chevalley.group import group_for
from chevalley.liealg import AdjointAlgebra
from oracles import add_nested_bracket, bracket_dict, jacobi_loop, tuples

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(tmp_path, *argv):
    out = tmp_path / "artifact.json"
    code = main(list(argv) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data, out


def test_roots_d4_has_24_roots_and_6_symmetries(tmp_path):
    code, data, _ = run(tmp_path, "roots", "--system", "D4")
    assert code == 0
    assert len(data["roots"]) == 24
    assert len(data["symmetries"]) == 6
    assert sorted(s["order"] for s in data["symmetries"]) == [1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("system", ["A2", "B2", "G2"])
def test_adjoint_matches_golden_file(tmp_path, system):
    code, _, out = run(tmp_path, "adjoint", "--system", system)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"adjoint_{system}.json").read_bytes()


def test_roots_matches_golden_file(tmp_path):
    code, _, out = run(tmp_path, "roots", "--system", "D4")
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "roots_D4.json").read_bytes()


def test_verify_laws_artifact_shape(tmp_path):
    code, data, _ = run(tmp_path, "verify", "laws",
                        "--system", "A2", "--ring", "Z/5")
    assert code == 0
    assert data["status"] == "pass"
    assert data["suite"] == "laws"
    case = data["cases"][0]
    assert case["system"] == "A2" and case["ring"] == "Z/5"
    assert case["checks"] > 0 and case["failures"] == []


def test_verify_eq1_exhaustive_pass(tmp_path):
    code, data, _ = run(tmp_path, "verify", "eq1",
                        "--system", "A2", "--ring", "Z/5")
    assert code == 0 and data["status"] == "pass"
    # all roots as alpha and beta, all units, all parameters
    assert data["cases"][0]["checks"] == 6 * 6 * 4 * 5


def test_verify_recover_unsupported_combination_exits_2(tmp_path, capsys):
    out = tmp_path / "never.json"
    code = main(["verify", "recover", "--system", "B2", "--ring", "Z/2",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "B2" in capsys.readouterr().err


def test_forge_then_decompose_round_trip(tmp_path):
    spec_file = tmp_path / "spec.json"
    cert_file = tmp_path / "cert.json"
    assert main(["forge-random", "--system", "A2", "--ring", "Z/6",
                 "--seed", "42", "--out", str(spec_file)]) == 0
    assert main(["decompose", "--spec", str(spec_file),
                 "--out", str(cert_file)]) == 0
    cert = json.loads(cert_file.read_text())
    assert set(cert) == {"system", "ring", "factors", "global", "report"}
    assert cert["report"]["generators_replayed"] == 6 * 6


def test_decompose_refusal_exit_1_with_stage_tag(tmp_path):
    spec_file = tmp_path / "spec.json"
    main(["forge-random", "--system", "A2", "--ring", "Z/5",
          "--seed", "1", "--out", str(spec_file)])
    data = json.loads(spec_file.read_text())
    data["images"][0]["matrix"][0][0] = (data["images"][0]["matrix"][0][0] + 2) % 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    cert_file = tmp_path / "cert.json"
    code = main(["decompose", "--spec", str(bad), "--out", str(cert_file)])
    assert code == 1
    artifact = json.loads(cert_file.read_text())
    assert artifact["error"]["stage"] in {"precheck", "split", "match",
                                          "ringmap", "replay"}


@pytest.mark.parametrize("defect", ["duplicate", "ragged", "bool-param",
                                    "ring-not-a-string", "system-not-a-string"])
def test_decompose_bad_intake_exits_1_at_precheck(tmp_path, defect):
    spec_file = tmp_path / "spec.json"
    main(["forge-random", "--system", "A2", "--ring", "Z/5",
          "--seed", "1", "--out", str(spec_file)])
    data = json.loads(spec_file.read_text())
    first = data["images"][0]
    if defect == "duplicate":
        data["images"].insert(0, dict(first, matrix=data["images"][1]["matrix"]))
    elif defect == "ragged":
        first["matrix"][4] = first["matrix"][4][:5]
    elif defect == "ring-not-a-string":
        data["ring"] = 5
    elif defect == "system-not-a-string":
        data["system"] = ["A2"]
    else:
        first["param"] = True
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    cert_file = tmp_path / "cert.json"
    assert main(["decompose", "--spec", str(bad), "--out", str(cert_file)]) == 1
    error = json.loads(cert_file.read_text())["error"]
    assert error["stage"] == "precheck" and error["witness"]


@pytest.mark.parametrize("ring,param", [("Z/1", 0), ("Z/4xZ/1", [0, 0])],
                         ids=["Z/1", "Z/4xZ/1"])
def test_decompose_zero_ring_exits_1_at_precheck(tmp_path, ring, param):
    # six zero images at parameter 0: every check before the CRT split holds
    zero = [[0] * 8 for _ in range(8)]
    roots = group_for("A2")[0].roots
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"system": "A2", "ring": ring, "images": [
        {"root": list(root), "param": param, "matrix": zero} for root in roots]}))
    cert_file = tmp_path / "cert.json"
    assert main(["decompose", "--spec", str(spec_file), "--out", str(cert_file)]) == 1
    error = json.loads(cert_file.read_text())["error"]
    assert error["stage"] == "precheck" and "zero ring" in error["detail"]


@pytest.mark.parametrize("ring", ["Z/1", "Z/4xZ/1"])
@pytest.mark.parametrize("argv", [["forge-random"], ["verify", "laws"], ["adjoint"]],
                         ids=["forge-random", "verify", "adjoint"])
def test_zero_ring_is_a_usage_error(tmp_path, capsys, argv, ring):
    out = tmp_path / "never.json"
    assert main(argv + ["--system", "A2", "--ring", ring, "--out", str(out)]) == 2
    assert not out.exists()
    assert "zero ring" in capsys.readouterr().err


def test_decompose_unreadable_spec_exits_2(tmp_path, capsys):
    code = main(["decompose", "--spec", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_byte_identical_for_fixed_seed_and_thread_count(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["forge-random", "--system", "B2", "--ring", "Z/5", "--seed", "9",
          "--out", str(a)])
    main(["forge-random", "--system", "B2", "--ring", "Z/5", "--seed", "9",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()

    old = os.environ.get("CHEV_THREADS")
    try:
        os.environ["CHEV_THREADS"] = "3"
        main(["verify", "laws", "--system", "A2", "--out", str(a)])
        os.environ["CHEV_THREADS"] = "1"
        main(["verify", "laws", "--system", "A2", "--out", str(b)])
    finally:
        if old is None:
            os.environ.pop("CHEV_THREADS", None)
        else:
            os.environ["CHEV_THREADS"] = old
    assert a.read_bytes() == b.read_bytes()


def test_unknown_system_is_a_usage_error(tmp_path, capsys):
    code = main(["roots", "--system", "Q9", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert capsys.readouterr().err


def test_format_flag_only_accepts_json():
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--system", "A2", "--format", "xml"])
    assert exc.value.code == 2


# sha256 of the stdout of `chevalley verify <suite> --seed 7` over the default
# matrix; the artifacts hold check counts and failure payloads, not timings
VERIFY_SEED7_SHA256 = {
    "commutator": "d4ea6f8644fd57d7400419b608e7174011c3a4455f877627b7df2fe98b4d8813",
    "eq1": "dbd01616d00745e157ca63cec229a4712e69c30d6a0958ad6f879889a491d053",
    "jacobi": "f983cab955c32f9f33378747bf85d744e0a8572d474e18596da2fc3e49ab648f",
    "laws": "8ab8db6bb0d1739d2e22e1ef77e1637f34eb6e144aaeabfc4f8f92e9ee2dd99b",
    "recover": "b64537154dfaf959c1c1cda043af365f9553da05c0c3631009fa265cff4d2154",
    "weyl": "71b1092f56ed7f06e780d8de8e3be85c9d6650583d9f07d8e7356b55d45ab4ef",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_SEED7_SHA256))
def test_verify_artifact_matches_golden_hash(suite, capsys):
    assert main(["verify", suite, "--seed", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_SEED7_SHA256[suite]


# sha256 of the stdout of `chevalley verify recover --system A3 --ring <ring>
# --seed 7`: a composite Z/n, a product ring and GF(q), which the default
# matrix does not reach
RECOVER_A3_SEED7_SHA256 = {
    "F9": "c1b8664560452911e4ce5d2d89f4078c61614fce75ae9ff013aa68658de6576e",
    "Z/3xZ/3": "e1c9e6794656bf13e60cd135cb7e5eb7097b55729076f479261336aa0bfd8669",
    "Z/6": "240481837062bb1150dc24a2ef9450a612e2594ee6aa526aa637562327e61b38",
}


@pytest.mark.parametrize("ring", sorted(RECOVER_A3_SEED7_SHA256))
def test_verify_recover_off_the_default_matrix_matches_golden_hash(ring, capsys):
    assert main(["verify", "recover", "--system", "A3", "--ring", ring, "--seed", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == RECOVER_A3_SEED7_SHA256[ring]


# --- the failure path of the suites, under planted defects ---------------------

def corrupt_x_root(monkeypatch):
    """x_r(1) for the first simple root r, over every finite ring, with 1
    added to its (0, 0) entry; r is (1, 0) in rank 2 and (1, 0, 0) in A3.
    The defect sits in group.x_stack, the one builder of x_root(t), so every
    key (r, 1) it is asked for carries it: in root_stack, in the x factors of
    the w tokens of word_stack, and in the inverse key (r, -t) where -t = 1.
    Z is spared, so the defect sits only in the finite rings the suites run
    over; no suite builds x_r(t) over Z (the chain constants come from the
    structure constants), so sparing it moves no recorded count."""
    clean = group.x_stack

    def corrupted(alg, ring, keys):
        keys = list(keys)
        out = clean(alg, ring, keys)
        if ring.descriptor != "Z":
            for q, (root, t) in enumerate(keys):
                if root == alg.system.simple(0) and t == ring.one:
                    out[q, 0, 0] = ring.add(tuples(out[q])[0][0], ring.one)
        return out
    monkeypatch.setattr(group, "x_stack", corrupted)


def wrong_chain_coefficient(monkeypatch):
    """C_12 of ((1, 0), (0, 1)) off by one, as the commutator suite reads it."""
    clean = cli.chain_coefficients

    def wrong(alg, r, s):
        coeffs = dict(clean(alg, r, s))
        if (r, s) == ((1, 0), (0, 1)):
            coeffs[(1, 2)] += 1
        return coeffs
    monkeypatch.setattr(cli, "chain_coefficients", wrong)


def wrong_bracket_constant(monkeypatch):
    """[e_a, e_b] for the first two simple roots a, b with its constant off by
    one: [e_(1,0), e_(0,1)] in rank 2."""
    clean = AdjointAlgebra.bracket_basis

    def wrong(self, a, b):
        out = clean(self, a, b)
        if (a, b) == (self.system.simple(0), self.system.simple(1)):
            out = {k: v + 1 for k, v in out.items()}
        return out
    monkeypatch.setattr(AdjointAlgebra, "bracket_basis", wrong)


# (defect, suite, system, ring) -> (checks, failures, sha256 of the failures
# as sorted-key JSON).  The recover cases ("half" on A2, the cubic short-root
# formula on G2, "nohalf" on A3) were recorded with the suite that conjugated
# tuple matrices one root at a time; the rest with the suites that built every
# x_root(t) as a group element and checked the commutator on group elements; the
# commutator cases on B2 and G2 were recorded with the check that multiplied
# tuple matrices one (r, s, t, u) at a time, before it took batches, and the
# eq1 and weyl cases past Z/4 with the suites that conjugated tuple matrices
# one (alpha, beta, t) at a time, and the jacobi cases with the suite that
# summed nested brackets over dicts one triple at a time.  The laws cases hold
# one failure more than those suites gave: inverse-is-negation for (1, 0), now
# the product x(t) x(-t) = 1, which the element-wise suite compared with itself.
PLANTED_FAILURES = [
    (corrupt_x_root, "laws", "A2", "Z/4", 108, 8,
     "c710d4e0e6d875b8bcc8f62a612132e29fc2fdc2a9e1ad7714c6101ffb4de081"),
    (corrupt_x_root, "eq1", "A2", "Z/4", 288, 8,
     "08db3e3ed1e10a738e6e9506659b629994938af97aea6df83a0ad3559345baaf"),
    (corrupt_x_root, "weyl", "A2", "Z/4", 172, 50,
     "a41162397c5f5262fc7d19b6e91985428e8d86ab216b6d4153b21a48a039238c"),
    (corrupt_x_root, "commutator", "A2", "Z/4", 384, 68,
     "0cfbbae3a93b581752d0350d515c769f05832a5738f3ae4706bc57d3a68dad85"),
    (wrong_chain_coefficient, "commutator", "B2", "Z/4", 768, 6,
     "d51a295ec29afc0ec207b435862e87dcd763f5356febdf5b7e0fbaa27686539b"),
    (corrupt_x_root, "commutator", "B2", "Z/4", 768, 104,
     "3dd42ab6198eac5cd69681a15cc1d2a1d7ed34622d217ba6a7593fb45375e622"),
    (corrupt_x_root, "commutator", "G2", "Z/4", 1920, 176,
     "a7a8ae0a20be85171cf5301af12a714c45348e1a4d20e653432d273e13c30690"),
    (wrong_chain_coefficient, "commutator", "B2", "Z/5", 1200, 16,
     "86c7ab41d982139060c8842b708b54e9628ac59f3a2f4dfef75b10b3f66c935d"),
    (wrong_bracket_constant, "jacobi", "A2", "Z", 530, 27,
     "2b39509237abafeba1ed83e110dfa12b9e23882fff63e095bbbf8caa03138882"),
    (wrong_bracket_constant, "jacobi", "B2", "Z", 1032, 33,
     "9a833cecd672238817e7d834fd9efa47f1d3d94e68f1a6fe92046183f03c8399"),
    (wrong_bracket_constant, "jacobi", "G2", "Z", 2816, 51,
     "195634faa3a7571874851068e86acc7a1e74b705e7f472298d2efa825ab10c91"),
    (corrupt_x_root, "laws", "A2", "F4", 108, 8,
     "c710d4e0e6d875b8bcc8f62a612132e29fc2fdc2a9e1ad7714c6101ffb4de081"),
    (corrupt_x_root, "laws", "A2", "F9", 498, 23,
     "75ea9e966094c24572a00d6692e08c515e15e51d42e0696b7c43e8ae8e9360df"),
    (corrupt_x_root, "laws", "A2", "Z/6", 228, 14,
     "c0f846d069e3b93c4d9fe901994af8114342edd011d6f8caa987ca5909dc5104"),
    (corrupt_x_root, "laws", "A2", "Z/3xZ/3", 498, 23,
     "f05f9d440d07e06367d6d1fe86133699939451d997864d26f520a1d6f6604c90"),
    (corrupt_x_root, "eq1", "A2", "F4", 432, 24,
     "fc7e01fe0c485bd25585376164dc4d1c67713c77a4005da5282a8c4ff65d6598"),
    (corrupt_x_root, "eq1", "A2", "F9", 2592, 80,
     "fa2026ffcbf2143dc85d7ba76a4350f29538dd04b8b3186d7b85330acf312dba"),
    (corrupt_x_root, "eq1", "A2", "Z/6", 432, 8,
     "6f7902f9cb37891dbac0a6e915cf14a24657ea9d1fba0d79caa5036add8ebfdb"),
    (corrupt_x_root, "eq1", "A2", "Z/3xZ/3", 1296, 24,
     "55889f337359f8cdb59ab507e6a1aaaf48ec52a3faeec1343c7e881f402aa010"),
    (corrupt_x_root, "weyl", "A2", "F4", 156, 38,
     "0910b8e950764f2aff0624ebb67b63821bfda3fbe0fda3a038f644599d2d8029"),
    (corrupt_x_root, "weyl", "A2", "F9", 360, 116,
     "366c02162060fac0e67d72de1084d7c9b23bde6ffc5e81ea3ec551131aa53ee0"),
    (corrupt_x_root, "weyl", "A2", "Z/6", 240, 70,
     "a663a5b94b5a1bfdd0ca9caa6422d08e12486554ee42acb5d55a5591b833aaf1"),
    (corrupt_x_root, "weyl", "A2", "Z/3xZ/3", 360, 116,
     "a95e0bfb53adde15bd368968a6eb4063478b2737a4c630657016bcf786c616e6"),
    (corrupt_x_root, "recover", "A2", "Z/5", 30, 10,
     "b3dd5ea2dbfb16063b2988a895db65b1a77269eb456b445ac2ee9d283cb7674e"),
    (corrupt_x_root, "recover", "G2", "Z/7", 60, 5,
     "6ce7615e3dda192b29b9c30382d0a83941d6d28ccdc970ad7979d4d2e9552e27"),
    (corrupt_x_root, "recover", "A3", "Z/4", 60, 27,
     "56fabc8e61a93d90e41371267d338332dc62c0b2147a562dd05c11f80f4df182"),
]


@pytest.mark.parametrize("defect, suite, system, ring, checks, count, digest",
                         PLANTED_FAILURES)
def test_suite_reports_planted_defect(monkeypatch, defect, suite, system, ring,
                                      checks, count, digest):
    defect(monkeypatch)
    got_checks, failures = cli.SUITES[suite](system, ring, 0)
    assert (got_checks, len(failures)) == (checks, count)
    text = json.dumps(failures, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("defect, suite, system, ring, checks, count, digest",
                         PLANTED_FAILURES)
def test_planted_defect_shows_right_after_a_clean_run(monkeypatch, defect, suite, system, ring,
                                                      checks, count, digest):
    # the clean run leaves every table the suite memoises per (algebra, ring)
    # warm; a table that kept data under test would keep it clean and hide
    # the defect from the run after it
    assert cli.SUITES[suite](system, ring, 0)[1] == []
    defect(monkeypatch)
    got_checks, failures = cli.SUITES[suite](system, ring, 0)
    assert (got_checks, len(failures)) == (checks, count)
    text = json.dumps(failures, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("suite, system, ring", [
    ("laws", "G2", "Z/4"), ("laws", "A2", "Z/3xZ/3"), ("weyl", "B2", "Z/6"),
    ("commutator", "G2", "Z/4"), ("recover", "D4", "Z/2"), ("recover", "A3", "Z/3xZ/3")])
def test_suites_multiply_tier_stacks_only(monkeypatch, suite, system, ring):
    # over Z/n (and products of them) every product a suite asks for is of
    # float32 tier stacks, so no product converts on the way in or out; the
    # group elements word_stack builds (w tokens, recover's conjugators) are
    # the int64 stacks certify shares; a first run builds the cold tables
    cli.SUITES[suite](system, ring, 0)
    seen, words = [], []
    for module in (cli, group, linalg, recover):
        clean = module.stack_mul

        def spy(r, a, b, clean=clean):
            if not words:
                seen.append((np.result_type(a), np.result_type(b)))
            return clean(r, a, b)
        monkeypatch.setattr(module, "stack_mul", spy)
    word_stack = group.word_stack

    def in_words(*args):
        words.append(True)
        try:
            return word_stack(*args)
        finally:
            words.pop()
    monkeypatch.setattr(group, "word_stack", in_words)
    monkeypatch.setattr(cli, "word_stack", in_words)
    checks, failures = cli.SUITES[suite](system, ring, 0)
    assert checks and failures == []
    assert seen and set(seen) == {(np.dtype(np.float32),) * 2}


@pytest.mark.parametrize("system, ring", [("D4", "Z/2"), ("A3", "Z/3xZ/3")])
def test_verify_recover_builds_no_tuple_matrix(monkeypatch, system, ring):
    # warm, each trial's g and g^-1 come from word_stack as arrays and X_root
    # from the memoised _recover_tables: no group element, and none of the
    # forge's matrix helpers
    cli.SUITES["recover"](system, ring, 0)
    called = []
    modules = (cli, group, linalg, recover)
    names = ("from_word", "identity", "mat_mul", "mat_pow", "matrix", "ring_invert")
    for module, name in itertools.product(modules, names):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *args, name=name: called.append(name))
    checks, failures = cli.SUITES["recover"](system, ring, 0)
    assert checks and failures == [] and called == []


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_jacobi_table_sum_matches_bracket_dict(name):
    sysm, alg = group_for(name)
    keys = list(sysm.roots) + list(range(sysm.rank))
    brackets = {(u, v): alg.bracket_basis(u, v)
                for u, v in itertools.product(keys, repeat=2)}
    for u, v, w in itertools.product(keys, repeat=3):
        got = add_nested_bracket(brackets, u, v, w, {})
        want = bracket_dict(alg, alg.bracket_basis(u, v), {w: 1})
        assert {k: c for k, c in got.items() if c} == want, (u, v, w)


@pytest.mark.parametrize("defect", [None, wrong_bracket_constant], ids=["clean", "defect"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3", "C3", "D4"])
def test_jacobi_contraction_matches_the_dict_loop(monkeypatch, name, seed, defect):
    # D4 has 28^3 > 12000 triples, so it takes the sampled path
    if defect:
        defect(monkeypatch)
    sysm, alg = group_for(name)
    checks, failures = cli._suite_jacobi(name, "Z", seed)
    want_checks, want = jacobi_loop(alg, seed)
    assert bool(want) == bool(defect)
    rest = len(sysm.roots) + sum(sysm.is_root(tuple(x + y for x, y in zip(r, s)))
                                 for r, s in itertools.permutations(sysm.roots, 2))
    assert (checks - rest, [f for f in failures if f["check"] == "jacobi"]) == (want_checks, want)


def test_main_builds_one_parser(tmp_path):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert main(["roots", "--system", "A2", "--out", str(tmp_path / "roots.json")]) == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
