"""What the benchmark harness and the package exports reach must exist.

The tracer in perfbench/ only warns when one of its targets is missing, and
the per-layer metrics of that target then drop out of the report unseen, so
a deletion in src that the harness depends on is caught here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import chevalley
from chevalley.decomposer import Certificate
from chevalley.roots import RootSystem

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
