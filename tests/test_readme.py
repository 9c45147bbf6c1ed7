"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # A README that calls a deleted or renamed function fails here.
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert {path.name for path in (tmp_path / "out").iterdir()} == {"543a7ed5.json", "manifest.json"}
