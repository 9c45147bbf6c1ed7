"""The runtime depends on the Python standard library only."""

import ast
import sys
from pathlib import Path

import gridbench

PACKAGE = Path(gridbench.__file__).parent


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 5
    foreign = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.partition(".")[0]
                if top != "gridbench" and top not in sys.stdlib_module_names:
                    foreign.add(f"{path.relative_to(PACKAGE)}: {name}")
    assert not foreign
