"""Every package name the benchmark reaches by name must resolve.

``perfbench/`` lies outside ``testpaths``, so without these tests a deleted
or renamed function would break the benchmark's tracer or workloads with no
tier-1 failure.  They only read ``perfbench/``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"pianocat.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module, attr in tracer.TRACED:
        assert callable(_resolve(module, attr)), (module, attr)


def _dotted(node: ast.AST) -> list[str] | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``; None for any other shape."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id] + parts[::-1]


def test_workload_calls_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "pianocat"
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            used.add((modules[chain[0]], ".".join(chain[1:])))
    assert {("geometry", "rotate_arc"), ("signs", "both_signed_matrices"), ("cli", "main")} <= used
    for module, attr in sorted(used):
        _resolve(module, attr)
