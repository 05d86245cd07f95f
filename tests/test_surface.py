"""What ``src/innerforms`` defines is used by the library, its exports or the benchmark,
and every module of the library, the tests and the benchmark reads what it imports.

A module-level function or class passes when another part of ``src/``
references it as a name or attribute (its own body and all docstrings do not
count), when ``innerforms.__all__`` exports it, or when its name appears in
the text of ``perfbench/*.py``, which names traced functions in strings.
Code that only tests need lives in ``tests/oracles.py``.

The benchmark's own imports are resolved here too, so that a removed name
fails tier-1 rather than killing a benchmark worker at start.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import innerforms

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "innerforms"
PERFBENCH = ROOT / "perfbench"


def referenced_names(node) -> set[str]:
    """Names and attribute names read anywhere in the subtree."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_definitions() -> list[str]:
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # (module, index of the top-level statement) -> the names that statement reads
    reads = {
        (module, i): referenced_names(stmt)
        for module, tree in modules.items()
        for i, stmt in enumerate(tree.body)
    }
    bench_text = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    exported = set(innerforms.__all__)
    unused = []
    for module, tree in modules.items():
        for i, stmt in enumerate(tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("__") and name.endswith("__"):
                continue  # the package's lazy __getattr__ and __dir__
            if any(name in names for key, names in reads.items() if key != (module, i)):
                continue
            if name in exported or re.search(rf"\b{re.escape(name)}\b", bench_text):
                continue
            unused.append(f"{module}.{name}")
    return unused


def test_every_src_definition_is_used_by_the_library_its_exports_or_the_benchmark():
    assert unused_definitions() == []


def unread_imports() -> list[str]:
    """``path: name`` for each name an import binds that its file never reads."""
    paths = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             *sorted(PERFBENCH.glob("*.py"))]
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread.extend(f"{path.relative_to(ROOT)}: {name}" for name in sorted(bound - read))
    return unread


def test_every_imported_name_is_read():
    assert unread_imports() == []


def load_by_path(path: Path):
    # by path, not by sys.path: perfbench/oracles.py and tests/oracles.py share a name
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_functions_resolve():
    tracing = load_by_path(PERFBENCH / "tracing.py")
    functions = tracing.library_functions()
    assert set(functions) == set(tracing.LAYER_FUNCTIONS)
    assert all(callable(function) for function in functions.values())


def test_benchmark_library_imports_resolve():
    tree = ast.parse((PERFBENCH / "libwork.py").read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "innerforms"
        for alias in node.names
    ]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
