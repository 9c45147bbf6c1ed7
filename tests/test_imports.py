"""The runtime depends on the Python standard library only, imports from
a directory or a zip archive alike, and exports exactly its public names."""

import ast
import os
import subprocess
import sys
import types
import zipfile
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


def test_package_imported_from_a_zip_archive_registers_every_task(tmp_path):
    # Task discovery goes through importlib.resources, which also reads archives.
    archive = tmp_path / "gridbench.zip"
    with zipfile.ZipFile(archive, "w") as bundle:
        for path in PACKAGE.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                bundle.write(path, path.relative_to(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", "import gridbench; print(gridbench.__file__, *gridbench.task_ids())"],
        env={**os.environ, "PYTHONPATH": str(archive)},
        cwd=tmp_path,
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    source, *ids = result.stdout.split()
    assert source.startswith(str(archive))
    assert ids == gridbench.task_ids()


def test_all_lists_exactly_the_public_names():
    # A name deleted from the package must leave __all__ too, or
    # ``from gridbench import *`` fails on the stale entry.
    public = {
        name
        for name, value in vars(gridbench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(gridbench.__all__) == len(set(gridbench.__all__))
    assert set(gridbench.__all__) == public
