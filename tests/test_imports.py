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
    # Task discovery goes through pkgutil, which also reads archives.
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


def test_import_without_site_loads_no_zipfile():
    # Listing the task modules through importlib.resources would import
    # zipfile and its dependencies; without site nothing else loads them.
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, gridbench; print('zipfile' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    assert result.stdout == "False\n"


def test_import_loads_nothing_that_only_forking_helpers_needs():
    # emit_dataset imports gridbench.parallel once a run is past its first
    # blocks, and that module imports signal; nothing imports gc, pickle,
    # select or threading.
    code = (
        "import sys; before = set(sys.modules); import gridbench; "
        "print(sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    loaded = set(ast.literal_eval(result.stdout))
    assert not {"gc", "gridbench.parallel", "pickle", "select", "signal", "threading"} & loaded


EXPECTED_PUBLIC = {
    "PALETTE", "MAX_ATTEMPTS", "EvalReport", "Example", "FormatError", "GenerationError", "Grid",
    "GridBenchError", "RngStream", "TaskScore", "TaskSet", "VariationResult",
    "VerificationError", "VerifierDomainError", "apply_variation", "emit_dataset", "evaluate",
    "format_percent", "format_report", "generate_examples", "generate_task_set", "golden_check",
    "load_task_file", "lookup", "new_stream", "params", "register", "render_text",
    "save_task_file", "task_ids",
}


def test_all_lists_exactly_the_public_names():
    # A name deleted from the package must leave __all__ too, or
    # ``from gridbench import *`` fails on the stale entry.
    public = {
        name
        for name, value in vars(gridbench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(gridbench.__all__) == len(set(gridbench.__all__))
    assert set(gridbench.__all__) == public == EXPECTED_PUBLIC
