"""Spec intake: malformed documents end as stage-tagged refusals.

``golden/intake_refusals.json`` pins the refusal of every malformed
document in ``MUTATIONS`` as ``spec_from_json`` gave it before the image
matrices were validated on arrays: the sorted-key JSON of the refusal and
the witness's own key order.
A hypothesis test then sends mutated documents through ``chevalley
decompose``: each must end with exit 0, or with exit 1 and a stage.  A ring
whose tables pass ``STACK_BUDGET`` ends at precheck within a second, before
its modulus is factored; so does a prime field of that size.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chevalley.cli import main
from chevalley.decomposer import STACK_BUDGET, CertifyError, certify, forge_random, spec_from_json

STAGES = {"precheck", "split", "match", "ringmap", "replay"}


@lru_cache(maxsize=None)
def base_text(system, ring_name, seed):
    return json.dumps(forge_random(system, ring_name, seed).to_json())


def base(system="A2", ring_name="Z/5", seed=1):
    return json.loads(base_text(system, ring_name, seed))


def at(path, value, doc=None):
    """The A2/Z/5 document (or doc) with the value at path replaced."""
    doc = doc or base()
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def product(path, value):
    return at(path, value, base("A2", "Z/6xF4", 0))


def duplicate(first):
    doc = base()
    entry = doc["images"][first]
    doc["images"].append(dict(entry, matrix=doc["images"][1]["matrix"]))
    return doc


def two_offenders():
    doc = at(["images", 3, "matrix", 2, 1], True)
    return at(["images", 3, "matrix", 0, 5], 9, doc)


def offenders_in_two_images():
    doc = at(["images", 4, "matrix", 0, 0], "0")
    return at(["images", 2, "matrix", 7, 7], 5, doc)


def bool_before_out_of_range():
    doc = at(["images", 3, "matrix", 0, 1], True)
    return at(["images", 3, "matrix", 3, 3], 9, doc)


def type_offenders_in_two_images():
    doc = at(["images", 4, "matrix", 0, 0], True)
    return at(["images", 2, "matrix", 7, 7], "x", doc)


def short_row_after_a_bad_entry():
    doc = at(["images", 1, "matrix", 0, 0], 1.5)
    doc["images"][1]["matrix"][6].pop()
    return doc


MUTATIONS = {
    "entry bool": lambda: at(["images", 0, "matrix", 1, 1], True),
    "entry false": lambda: at(["images", 5, "matrix", 7, 0], False),
    "entry float": lambda: at(["images", 0, "matrix", 1, 1], 1.0),
    "entry string": lambda: at(["images", 2, "matrix", 3, 4], "1"),
    "entry null": lambda: at(["images", 2, "matrix", 0, 0], None),
    "entry dict": lambda: at(["images", 2, "matrix", 0, 0], {"v": 1}),
    "entry out of range": lambda: at(["images", 1, "matrix", 4, 2], 5),
    "entry negative": lambda: at(["images", 1, "matrix", 0, 7], -1),
    "entry past int64": lambda: at(["images", 3, "matrix", 5, 5], 2 ** 70),
    "entry list over a non-product ring": lambda: at(["images", 0, "matrix", 2, 2], [1, 0]),
    "two offenders in one matrix": two_offenders,
    "offenders in two images": offenders_in_two_images,
    "bool before out of range": bool_before_out_of_range,
    "type offenders in two images": type_offenders_in_two_images,
    "short row": lambda: at(["images", 2, "matrix", 3], [0] * 7),
    "long row": lambda: at(["images", 2, "matrix", 3], [0] * 9),
    "row not a list": lambda: at(["images", 2, "matrix", 3], 7),
    "matrix not a list": lambda: at(["images", 2, "matrix"], {"rows": 8}),
    "missing row": lambda: at(["images", 0, "matrix"], base()["images"][0]["matrix"][:7]),
    "short row after a bad entry": short_row_after_a_bad_entry,
    "product entry too long": lambda: product(["images", 1, "matrix", 0, 0], [1, 0, 0]),
    "product entry too short": lambda: product(["images", 1, "matrix", 0, 0], [1]),
    "product entry an integer": lambda: product(["images", 1, "matrix", 5, 0], 1),
    "product entry with a bool": lambda: product(["images", 2, "matrix", 0, 3], [1, True]),
    "product entry with a float": lambda: product(["images", 2, "matrix", 0, 3], [0.0, 1]),
    "product entry out of range": lambda: product(["images", 3, "matrix", 4, 4], [6, 0]),
    "product entry out of the second factor": lambda: product(["images", 3, "matrix", 4, 4],
                                                              [0, 4]),
    "product entry nested": lambda: product(["images", 0, "matrix", 7, 7], [[0], 1]),
    "param bool": lambda: at(["images", 0, "param"], True),
    "param out of range": lambda: at(["images", 0, "param"], 7),
    "param of a product outside": lambda: product(["images", 0, "param"], [1, 4]),
    "non-root": lambda: at(["images", 3, "root"], [2, 0]),
    "root of floats": lambda: at(["images", 3, "root"], [1.0, 0]),
    "root too long": lambda: at(["images", 3, "root"], [1, 0, 0]),
    "duplicate key": lambda: duplicate(0),
    "duplicate key of a later image": lambda: duplicate(4),
    "ring not a string": lambda: at(["ring"], 5),
    "system not a string": lambda: at(["system"], ["A2"]),
    "unknown ring": lambda: at(["ring"], "Q"),
    "infinite ring": lambda: at(["ring"], "Z"),
    "unknown system": lambda: at(["system"], "X2"),
    "missing images": lambda: {"system": "A2", "ring": "Z/5"},
    "images not a list": lambda: at(["images"], 3),
    "image without a matrix": lambda: at(["images", 0], {"root": [1, 0], "param": 1}),
    "other system's matrices": lambda: at(["system"], "B2"),
}

# per document: json.dumps(refusal.to_json(), sort_keys=True) and the
# witness's key order, recorded before the vectorised intake
RECORDED = json.loads((Path(__file__).parent / "golden" / "intake_refusals.json").read_text())


def refusal(doc):
    with pytest.raises(CertifyError) as err:
        spec_from_json(doc)
    return json.dumps(err.value.to_json(), sort_keys=True), list(err.value.witness)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_malformed_document_refusal_is_byte_identical(name):
    want = RECORDED[name]
    assert refusal(MUTATIONS[name]()) == (want["refusal"], want["witness_keys"])


def test_every_recorded_refusal_has_a_document():
    assert set(RECORDED) == set(MUTATIONS)


# --- mutated documents through the CLI --------------------------------------------

BASES = [("A2", "Z/5", 1), ("A2", "Z/6xF4", 0), ("B2", "F4", 2)]
RINGS = ["Z/5", "Z/4", "Z/7", "F4", "F9", "Z/6", "Z/6xF4", "Z/3xZ/3", "Z", "Z/0", "Z/1",
         "F6", "Q", "", "Z/x", "x", "Z/1000003", "Z/1000000000000000003",
         "F100000000000031", "F1000000000000000003"]
SYSTEMS = ["A2", "B2", "G2", "A3", "X2", "", "A"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=6)


def nodes(doc, path=()):
    """Every (path, value) of a document, the document itself first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


@st.composite
def mutated(draw):
    doc = json.loads(base_text(*draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "delete", "append", "ring", "system",
                                     "duplicate"]))
        if kind == "ring":
            doc["ring"] = draw(st.sampled_from(RINGS))
            continue
        if kind == "system":
            doc["system"] = draw(st.sampled_from(SYSTEMS))
            continue
        images = doc.get("images")
        if kind == "duplicate" and isinstance(images, list) and images:
            images.insert(draw(st.integers(0, len(images))), draw(st.sampled_from(images)))
            continue
        paths = [path for path, _ in nodes(doc) if path]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        node = doc
        for step in path[:-1]:
            node = node[step]
        if kind == "delete":
            del node[path[-1]]
        elif kind == "append" and isinstance(node[path[-1]], list):
            node[path[-1]].append(draw(json_values))
        else:
            node[path[-1]] = draw(json_values)
    return doc


def decompose(doc):
    """(exit code, artifact) of ``chevalley decompose`` on a document."""
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = main(["decompose", "--spec", spec, "--out", out])
        with open(out, encoding="utf-8") as fh:
            return code, json.load(fh)


@settings(max_examples=60, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated())
def test_mutated_documents_end_at_a_stage(doc):
    code, artifact = decompose(doc)
    assert code in (0, 1)
    if code == 1:
        assert artifact["error"]["stage"] in STAGES
    else:
        assert "factors" in artifact


# --- the size budget --------------------------------------------------------------

OVERSIZED = {
    "relabelled": lambda: at(["ring"], "Z/1000003"),   # the A2/Z/5 images, all in range
    "huge modulus": lambda: {"system": "A2", "ring": "Z/1000000000000000003", "images": []},
    # primes, read as fields without trial division
    "huge field": lambda: {"system": "A2", "ring": "F100000000000031", "images": []},
    "huger field": lambda: {"system": "A2", "ring": "F1000000000000000003", "images": []},
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_rings_are_refused_at_precheck_within_a_second(name):
    doc = OVERSIZED[name]()
    t0 = time.perf_counter()
    code, artifact = decompose(doc)
    assert time.perf_counter() - t0 < 1
    assert code == 1 and artifact["error"]["stage"] == "precheck"
    assert artifact["error"]["witness"]["entries"] > STACK_BUDGET == (
        artifact["error"]["witness"]["budget"])


def test_a2_over_z_10007_passes_the_size_budget():
    # refused for its missing images, a check the size refusal comes before
    with pytest.raises(CertifyError) as err:
        certify(spec_from_json({"system": "A2", "ring": "Z/10007", "images": []}))
    assert err.value.detail.startswith("images must cover")
