"""CLI contract: artifacts, exit codes, determinism, golden files."""

import json
import os
import pathlib

import pytest

from chevalley.cli import main

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
