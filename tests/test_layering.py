"""Layering: the search code reports to ``SearchStats`` and its record only.

No module of the search layers — ``repro.core`` (except the solver
facade, ``core/kpj.py``), ``repro.pathing``, ``repro.landmarks``,
``repro.baselines`` and ``repro.graph`` — takes a ``metrics``
parameter or imports the registry module: ``KPJSolver`` is the one
place a query's registry is filled.  The modules are read with
``ast``, not imported.
"""

import ast
from pathlib import Path

import repro.obs.metrics as metrics_module

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
LAYERS = ("core", "pathing", "landmarks", "baselines", "graph")
EXEMPT = SRC / "core" / "kpj.py"


def _search_modules():
    paths = sorted(
        path
        for layer in LAYERS
        for path in (SRC / layer).rglob("*.py")
        if path != EXEMPT
    )
    assert SRC / "core" / "iter_bound.py" in paths
    for path in paths:
        yield path.relative_to(SRC), ast.parse(path.read_text(), filename=str(path))


def _imports_registry(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "repro.obs.metrics" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module == "repro.obs.metrics":
            return True
        # ``from repro.obs import metrics`` or a name it re-exports.
        return node.module == "repro.obs" and any(
            alias.name == "metrics" or alias.name in metrics_module.__all__
            for alias in node.names
        )
    return False


def test_no_search_function_takes_metrics():
    offenders = []
    for name, tree in _search_modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                params += [a for a in (args.vararg, args.kwarg) if a is not None]
                if any(param.arg == "metrics" for param in params):
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, f"search code takes metrics= at {offenders}"


def test_no_search_module_imports_the_registry():
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _search_modules()
        for node in ast.walk(tree)
        if _imports_registry(node)
    ]
    assert not offenders, f"search code imports repro.obs.metrics at {offenders}"
