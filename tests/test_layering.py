"""Dependencies point one way: ``core`` ← ``estimators`` ← ``serve``.

An AST scan of the source tree (no imports executed), so a layering
violation fails here even when it happens to import cleanly:

* nothing below the serving layer — the estimators, the training loops,
  the Shapley baselines, the runtime engine — imports ``repro.serve``;
* ``repro.core`` names ``repro.estimators`` only in the registry's lazy
  bootstrap, :func:`repro.core.backends._ensure_populated`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
BELOW_SERVE = ("core", "estimators", "shapley", "hfl", "vfl", "runtime")


def _modules(package: str) -> list[Path]:
    return sorted((SRC / package).rglob("*.py"))


def _imports(tree: ast.AST):
    """(imported module name, enclosing function names) for every import."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Import):
                found.extend((alias.name, inner) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module:
                found.append((child.module, inner))
                found.extend(
                    (f"{child.module}.{alias.name}", inner) for alias in child.names
                )
            visit(child, inner)

    visit(tree, ())
    return found


def _names(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@pytest.mark.parametrize("package", BELOW_SERVE)
def test_no_serve_import_below_the_serving_layer(package):
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in _modules(package)
        for name, _ in _imports(ast.parse(path.read_text()))
        if _names(name, "repro.serve")
    ]
    assert not offenders, offenders


def test_core_names_estimators_only_in_the_lazy_bootstrap():
    offenders = []
    for path in _modules("core"):
        for name, scope in _imports(ast.parse(path.read_text())):
            if not _names(name, "repro.estimators"):
                continue
            if path.name == "backends.py" and scope == ("_ensure_populated",):
                continue
            offenders.append(f"{path.relative_to(SRC)} {scope}: {name}")
    assert not offenders, offenders


def test_the_scan_sees_imports():
    # Guard against a scan that silently finds nothing.
    tree = ast.parse((SRC / "core" / "backends.py").read_text())
    assert ("repro.estimators", ("_ensure_populated",)) in _imports(tree)
