"""Every package name the benchmark reaches by name must resolve, and every
call the workloads make must bind to the function's signature.

``perfbench/`` lies outside ``testpaths``, so without these tests a deleted
or renamed function, or a changed signature, would break the benchmark's
tracer or workloads with no tier-1 failure.  They only read ``perfbench/``.
"""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

from pianocat import cli

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
    calls = []
    for node in ast.walk(tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in modules:
            used.add((modules[chain[0]], ".".join(chain[1:])))
        chain = _dotted(node.func) if isinstance(node, ast.Call) else None
        if chain and chain[0] in modules:
            calls.append((modules[chain[0]], ".".join(chain[1:]), node))
    assert {("geometry", "rotate_arc"), ("signs", "both_signed_matrices"), ("cli", "main")} <= used
    for module, attr in sorted(used):
        _resolve(module, attr)
    # Each call's positional count and keyword names bind to the signature.
    bound = set()
    for module, attr, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        assert all(k.arg is not None for k in node.keywords), ast.unparse(node)
        signature = inspect.signature(_resolve(module, attr))
        try:
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{ast.unparse(node)} does not bind to {attr}{signature}: {exc}")
        bound.add(f"{module}.{attr}")
    assert {
        "signs.check_beta_delta",
        "endo.verify_path_algebra_iso",
        "endo.piano_of_generator",
        "endo.EndoAlgebra.from_arcs",
        "cli.main",
    } <= bound


def test_verify_argv_passes(capsys):
    # The verify-n3 workload runs ``cli.main(VERIFY_ARGV)``, and its gate
    # wants exit 0 with every record passed: a flag the CLI stopped taking
    # (``--word-cap``, say) would make every run exit 2.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    (argv,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "VERIFY_ARGV"
    ]
    assert cli.main(list(argv)) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records and all(record["passed"] for record in records)


def test_perfbench_test_names_resolve():
    # The benchmark's own tests read names through the package's modules
    # (the tracer test reads ``endo.normal_form``, ``signs.chi_multiply``,
    # ``homs.suspend`` and ``pianocat.suspend``), so a module that drops an
    # import behind one of them breaks them: every such chain must resolve.
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pianocat":
            modules.update({a.asname or a.name: f"pianocat.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            names = [a for a in node.names if a.name == "pianocat"]
            modules.update({a.asname or a.name: a.name for a in names})
    chains = {
        tuple(chain)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (chain := _dotted(node)) and chain[0] in modules
    }
    expected = {("endo", "normal_form"), ("signs", "chi_multiply"), ("homs", "suspend")}
    assert expected | {("pianocat", "suspend")} <= chains
    for root, *attrs in sorted(chains):
        owner = importlib.import_module(modules[root])
        for attr in attrs:
            assert hasattr(owner, attr), ".".join((root, *attrs))
            owner = getattr(owner, attr)
