"""Layering: who may know the registry, and who may know cffi.

No module of the search layers — ``repro.core`` (except the solver
facade, ``core/kpj.py``), ``repro.pathing``, ``repro.landmarks``,
``repro.baselines`` and ``repro.graph`` — takes a ``metrics``
parameter or imports the registry module: ``KPJSolver`` is the one
place a query's registry is filled.  And ``repro.native`` is the
compiled tier's one boundary: no other module touches cffi or its
cdata.  The modules are read with ``ast``, not imported.
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


CFFI = ("cffi", "_cffi_backend")
CDATA = ("ffi", "lib", "pointer")


def _imports(tree):
    """``(module.name, lineno)`` for every name an import binds, and the
    local names bound to ``repro.native`` itself."""
    imported, aliases = [], {"repro.native"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
            for alias in node.names:
                imported.append((prefix + alias.name, node.lineno))
                if prefix + alias.name == "repro.native":
                    aliases.add(alias.asname or alias.name)
    return imported, aliases


def test_only_repro_native_touches_cffi():
    """``repro.native`` is the compiled tier's one boundary.  Outside it
    no module imports cffi or reads the tier's ``ffi``, ``lib`` or
    ``pointer``; ``repro.pathing`` does not import the tier at all; and
    no identifier in the body of ``FlatIncrementalSPT`` — the
    pure-Python Alg. 7 the compiled tree is tested against — names
    ``native``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC)
        if name.parts[0] == "native":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, aliases = _imports(tree)
        for module, line in imported:
            tier = module == "repro.native" or module.startswith("repro.native.")
            if module.split(".")[0] in CFFI or (
                tier and (name.parts[0] == "pathing" or module.split(".")[-1] in CDATA)
            ):
                offenders.append(f"{name}:{line} imports {module}")
        offenders += [
            f"{name}:{node.lineno} reads {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in CDATA
            and ast.unparse(node.value) in aliases
        ]
    flat = SRC / "core" / "flat_engine.py"
    (reference,) = [
        node
        for node in ast.parse(flat.read_text()).body
        if isinstance(node, ast.ClassDef) and node.name == "FlatIncrementalSPT"
    ]
    for node in ast.walk(reference):
        for ident in (getattr(node, f, None) for f in ("id", "attr", "arg", "name")):
            if isinstance(ident, str) and "native" in ident.lower():
                offenders.append(f"FlatIncrementalSPT:{node.lineno} names {ident}")
    assert not offenders, f"the compiled tier leaks out of repro.native: {offenders}"
