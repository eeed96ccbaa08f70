"""What the benchmark harness and the package exports reach must exist,
every import in src and tests must be read, every definition in src must
be reached from ``cli.main`` or the benchmark harness through the
definitions that read it, only linalg names a float dtype, outside liealg
only the one x_root(t) builder reads the divided powers, only the
Certificate reads its matrices, no table cli memoises reads data a planted
defect sits in, cli builds no group element, and src builds no tuple matrix
outside the few places that must.  The forge's warm-up documents pass the
benchmark's own checks.

The tracer in perfbench/ only warns when one of its targets is missing, and
the per-layer metrics of that target then drop out of the report unseen, so
a deletion in src that the harness depends on is caught here instead.  No
linter is installed, so an import that a deletion orphans is caught here too.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import chevalley
from chevalley import cli, decomposer
from chevalley.decomposer import Certificate, forge_random, spec_from_elements
from chevalley.linalg import mat_mul, matrix
from chevalley.rings import ring_make
from chevalley.roots import RootSystem

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "perfbench"
SRC = TESTS.parent / "src" / "chevalley"


def load_bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))   # forge prepends src
    spec.loader.exec_module(module)
    return module


def test_benchmark_and_exports_resolve(monkeypatch):
    tracer = load_bench_module(monkeypatch, "tracer")
    missing = [(module, attr) for _, module, attr, _ in tracer.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
    forge = load_bench_module(monkeypatch, "forge")
    assert callable(forge.mat_pow)
    # the independent checks of certify's replay and the forge's root order
    assert callable(Certificate.apply)
    assert callable(RootSystem.height)
    assert [name for name in chevalley.__all__ if not hasattr(chevalley, name)] == []


@pytest.mark.parametrize("workload", ["roundtrip-small", "roundtrip-rank3", "refusals",
                                      "verify-suites"])
def test_forged_warmup_operations_pass_the_benchmark_checks(monkeypatch, workload):
    # the benchmark feeds the forge's matrices, built with linalg's forge API,
    # into spec documents and compares Certificate.apply with tuples in
    # run.apply_check: a forge that crashes on arrays, or an apply that
    # returns one, fails every operation there and nowhere else
    forge = load_bench_module(monkeypatch, "forge")
    run = load_bench_module(monkeypatch, "run")
    mods = run.load_chevalley()
    ops, golden = forge.warmup_round(workload), run.golden_hashes(workload)["warmup"]
    assert len(ops) == len(golden)
    problems = [run.check(run.execute(op, mods), mods, sha) for op, sha in zip(ops, golden)]
    assert problems == [[] for _ in ops]


def unused_imports(path: Path) -> list:
    """Names bound by an import in the module at path and never read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(bound.items())
            if name not in read]


def names_read(tree) -> set:
    """Every name an AST node reads, as a name or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)})


def definitions(path: Path) -> list:
    """(name, line) of each top-level function and class of the module at
    path, and of each method of those classes that is not a dunder."""
    out = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(item.name, item.lineno) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def is_method(item) -> bool:
    return isinstance(item, ast.FunctionDef) and not (
        item.name.startswith("__") and item.name.endswith("__"))


def test_every_definition_is_reached(monkeypatch):
    # from cli.main, every name the harness reads, its tracer targets and the
    # modules' top-level statements, a reached definition reaches the names
    # it reads; reached only by tests or the package exports is dead public
    # API, and tests keep their own oracles in tests/
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    bodies, todo = {}, ["main"]     # a class's body is all but its methods
    for path in modules:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                for item in filter(is_method, node.body):
                    bodies.setdefault(item.name, []).append(item)
                rest = [item for item in node.body if not is_method(item)]
                bodies.setdefault(node.name, []).extend(node.decorator_list + node.bases + rest)
            elif isinstance(node, ast.FunctionDef):
                bodies.setdefault(node.name, []).append(node)
            else:
                todo += names_read(node)
    for path in sorted(BENCH.glob("*.py")):
        todo += names_read(ast.parse(path.read_text(), filename=str(path)))
    todo += [attr for _, _, attr, _ in load_bench_module(monkeypatch, "tracer").TARGETS]
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in bodies.get(name, []):
                todo += names_read(node)
    assert [f"{p.name}:{line} {name}" for p in modules for name, line in definitions(p)
            if name not in reached] == []


def test_no_unused_imports():
    # the package __init__ imports in order to export
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []


def readers(path: Path, name: str) -> set:
    """The top-level definitions of the module at path that read ``name``,
    as a name or as an attribute."""
    return {getattr(node, "name", "<module>")
            for node in ast.parse(path.read_text(), filename=str(path)).body
            for sub in ast.walk(node)
            if (isinstance(sub, ast.Name) and sub.id == name
                or isinstance(sub, ast.Attribute) and sub.attr == name)
            and isinstance(sub.ctx, ast.Load)}


def test_one_x_root_path(monkeypatch):
    # every x_root(t) comes from group.x_stack, where test_cli.corrupt_x_root
    # plants its defect: outside liealg, the divided powers are read only by
    # the pattern x_stack gathers from and by verify jacobi's integrality
    # recheck, so no second builder can step around the defect
    modules = [p for p in sorted(SRC.glob("*.py")) if p.stem != "liealg"]
    assert {(p.stem, fn) for p in modules for fn in readers(p, "divided_powers")} == {
        ("group", "_x_pattern"), ("cli", "_suite_jacobi")}
    assert {(p.stem, fn) for p in modules for name in ("_x_pattern", "_x_column")
            for fn in readers(p, name)} == {("group", "x_stack"), ("group", "_x_column")}
    tracer = load_bench_module(monkeypatch, "tracer")
    layers = {layer for layer, *_ in tracer.TARGETS}
    assert {"group.unipotent", "group.from_word", "linalg.mat_mul"} <= layers
    assert {f"cli.verify.{suite}" for suite in cli.SUITES} <= layers


def test_only_the_certificate_reads_its_matrices():
    # lambda C x_root(rho t) C^-1 lambda^-1 is composed in one place, the
    # Certificate's methods (its class body holds only fields besides them):
    # certify replays the object it returns, and nothing else in src reads
    # the four matrices back
    matrices = ("lambda_mat", "lambda_inv", "conjugator", "conjugator_inv")
    assert {(p.stem, fn) for p in sorted(SRC.glob("*.py")) for name in matrices
            for fn in readers(p, name)} == {("decomposer", "Certificate")}


def test_ring_tables_stay_in_linalg():
    # the |R| x |R| element tables exist for GF(p^k), k > 1, only, and only
    # row_ops reads them: every other caller computes on element arrays with
    # row_ops and linalg.positions, so no ring of any other kind builds one
    assert {(p.stem, fn) for p in sorted(SRC.glob("*.py"))
            for fn in readers(p, "ring_tables")} == {("linalg", "row_ops")}


UNDER_TEST = {"bracket_basis", "chain_coefficients", "x_stack", "root_stack"}


def is_cached(node) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "lru_cache"
               or getattr(d, "id", None) == "lru_cache" for d in node.decorator_list)


def test_no_memoised_table_in_cli_reads_data_under_test():
    # tests/test_cli.py plants its defects in these four; a table memoised per
    # (algebra, ring) that read one would keep the clean value and hide the
    # defect on every later call.  Reads are followed through every call to a
    # function or method of src, by name
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef):
                    functions.setdefault(fn.name, []).append(fn)

    def reach(node):
        read, todo, seen = set(), [node], set()
        while todo:
            for sub in ast.walk(todo.pop()):
                if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load):
                    read.add(getattr(sub, "id", None) or sub.attr)
                if isinstance(sub, ast.Call):
                    name = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                    if name in functions and name not in seen:
                        seen.add(name)
                        todo += functions[name]
        return read

    cached = [node for node in ast.parse((SRC / "cli.py").read_text()).body
              if isinstance(node, ast.FunctionDef) and is_cached(node)]
    assert {"_law_tables", "_eq1_tables", "_weyl_tables", "_recover_tables"} <= {
        node.name for node in cached}
    assert {node.name: sorted(reach(node) & UNDER_TEST) for node in cached} == {
        node.name: [] for node in cached}
    # the check sees a read two calls away
    assert {"root_stack", "x_stack"} <= reach(functions["_suite_weyl"][0])


def test_cli_builds_no_group_element_or_tuple_matrix():
    # the verify suites stay on arrays: cli calls from_word nowhere (and
    # test_src_builds_no_tuple_matrix covers the tuples)
    calls = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
             if isinstance(node, ast.Call)}
    assert calls and "from_word" not in calls


def is_tuple_call(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "tuple"


def tuple_matrix_builders(path: Path) -> set:
    """The functions (Class.method for methods) of the module at path that
    build a tuple of tuples: tuple(tuple(...)), tuple(tuple(...) for ...)
    or tuple(map(tuple, ...))."""
    def builds(node):
        arg = node.args[0] if is_tuple_call(node) and node.args else None
        return (is_tuple_call(arg)
                or isinstance(arg, (ast.GeneratorExp, ast.ListComp)) and is_tuple_call(arg.elt)
                or isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "map"
                and getattr(arg.args[0], "id", None) == "tuple")

    out = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        scopes = [(f"{node.name}.{item.name}", item) for item in node.body
                  if isinstance(item, ast.FunctionDef)] if isinstance(node, ast.ClassDef) else [
            (getattr(node, "name", "<module>"), node)]
        out |= {name for name, scope in scopes if any(map(builds, ast.walk(scope)))}
    return out


def test_src_builds_no_tuple_matrix():
    # a matrix in src is a read-only array (see linalg); tuples of tuples are
    # left only where they must be: Certificate.apply, which the benchmark's
    # apply_check compares with tuples, the field tables of GF(p^k) and the
    # Cartan matrix
    assert {(p.stem, name) for p in sorted(SRC.glob("*.py"))
            for name in tuple_matrix_builders(p)} == {
        ("decomposer", "Certificate.apply"), ("rings", "FieldTable.__init__"),
        ("roots", "cartan_matrix")}
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if re.search(r"\b(Matrix|mat_map|to_matrix)\b", p.read_text())] == []


def test_elements_multiply_as_words():
    # the Weyl scan works on arrays: in decomposer only the big cell and the
    # forge build an element from a word, GroupElement is a record with no
    # product of its own, every .mul in src is a ring's (two operands), and
    # the tuple scaling is gone
    assert readers(SRC / "decomposer.py", "from_word") == {"_big_cell", "forge_random_parts"}
    element = next(node for node in ast.parse((SRC / "group.py").read_text()).body
                   if isinstance(node, ast.ClassDef) and node.name == "GroupElement")
    assert [item.name for item in element.body if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("__")] == []
    modules = sorted(SRC.glob("*.py"))
    assert [f"{p.name}:{node.lineno}" for p in modules
            for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "mul" and len(node.args) != 2] == []
    assert [(p.stem, fn) for p in modules for fn in readers(p, "mat_scale")] == []
    assert "mat_scale" not in {name for p in modules for name, _ in definitions(p)}


FLOAT_TYPES = {name for name in dir(np)
               if isinstance(getattr(np, name), type) and issubclass(getattr(np, name), np.floating)}


def float_dtypes_named(path: Path) -> list:
    """Where the module at path names a float dtype: a numpy float type
    (np.float32, np.double, ...), the builtin float, or a string of a float
    dtype passed as ``dtype=`` or to ``astype`` or ``np.dtype``."""
    def is_float_string(node):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            return False
        try:
            return np.dtype(node.value).kind == "f"
        except TypeError:
            return False

    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in FLOAT_TYPES
                or isinstance(node, ast.Name) and node.id == "float"):
            hits.append(f"{path.name}:{node.lineno}")
        elif isinstance(node, ast.Call):
            args = [k.value for k in node.keywords if k.arg == "dtype"]
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("astype", "dtype"):
                args += node.args[:1]
            hits += [f"{path.name}:{node.lineno}" for a in args if is_float_string(a)]
    return hits


def test_floats_stay_in_the_product_kernel():
    # linalg carries exact integer products in float32 and names the float32
    # tier stacks may be stored in; every other module gets that tier from
    # stack_dtype and never names a float type itself
    assert float_dtypes_named(SRC / "linalg.py")
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"
            for hit in float_dtypes_named(path)] == []


def diag_refusal_spec():
    """A forged A2/Z/5 spec conjugated by a diagonal matrix that scales one
    root coordinate by 2: every image keeps its relations, and match refuses."""
    ring = ring_make("Z/5")
    diag, diag_inv = ([[(c if i == j == 0 else 1) if i == j else 0 for j in range(8)]
                       for i in range(8)] for c in (2, 3))
    table = {key: mat_mul(ring, mat_mul(ring, matrix(diag), m), matrix(diag_inv))
             for key, m in forge_random("A2", "Z/5", 0).images}
    return spec_from_elements("A2", ring, table)


def test_tracer_runs_certify_and_the_commutator_suite(monkeypatch, tmp_path):
    """The tracer reads the arguments of its targets (the rows passed to
    local_nullspace, for the cells count): with it installed, certifies (one
    with C3/Z/3's 441-row first system), a match refusal and a verify
    commutator case must run through and count cells."""
    tracer = load_bench_module(monkeypatch, "tracer").Tracer()
    specs = [forge_random("A3", "Z/4", 0), forge_random("C3", "Z/3", 0)]
    refused = diag_refusal_spec()
    tracer.install()
    try:
        for spec in specs:
            decomposer.certify(spec)
        with pytest.raises(decomposer.CertifyError) as err:
            decomposer.certify(refused)
        code = cli.main(["verify", "commutator", "--system", "A2", "--ring", "Z/4",
                         "--out", str(tmp_path / "commutator.json")])
    finally:
        tracer.uninstall()
    assert err.value.stage == "match"
    assert code == 0
    assert not tracer.absent
    # only the refusal raised, through certify and match
    assert {layer for layer, agg in tracer.aggregates.items() if agg.raised} == {
        "decomposer.certify", "decomposer.match"}
    assert tracer.aggregates["decomposer.certify"].calls == 3
    assert tracer.aggregates["decomposer.match"].raised == 1
    assert tracer.aggregates["cli.verify.commutator"].calls == 1
    assert tracer.aggregates["linalg.local_nullspace"].extra["cells"] > 441 * 441
