"""The package imports nothing but the standard library, numpy and scipy,
the two runtime dependencies pyproject.toml declares."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "twpc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _top_level_imports(path):
    """(file name, top-level package) of every absolute import in path,
    also those inside functions or try blocks."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from ((path.name, name.split(".")[0]) for name in names)


def test_src_imports_only_stdlib_numpy_scipy():
    found = {imp for path in sorted(SRC.glob("*.py"))
             for imp in _top_level_imports(path)}
    assert {"numpy", "scipy"} <= {pkg for _, pkg in found}
    assert sorted(imp for imp in found if imp[1] not in ALLOWED) == []
