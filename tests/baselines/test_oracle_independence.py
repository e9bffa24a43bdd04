"""The oracles share no code with the search substrate they check.

Yen (:mod:`repro.baselines.yen`) and the brute-force enumerator
(:mod:`repro.baselines.brute_force`) are the fuzz harness's ground
truth and kpjbench's answer check.  A bug in the search kernels of
:mod:`repro.pathing` or the flat engine could hide from them if they
ran on those kernels, so neither module may import from there.
"""

import ast
import importlib

import pytest

FORBIDDEN = ("repro.pathing", "repro.core.flat_engine")


def _imported_modules(module_name: str) -> set[str]:
    source = importlib.import_module(module_name).__file__
    with open(source) as fh:
        tree = ast.parse(fh.read())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize(
    "module", ["repro.baselines.yen", "repro.baselines.brute_force"]
)
def test_oracle_imports_nothing_from_the_search_substrate(module):
    imported = _imported_modules(module)
    assert imported, module
    offending = sorted(
        name
        for name in imported
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )
    assert offending == [], f"{module} imports {offending}"
