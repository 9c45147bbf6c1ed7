"""CLI transcripts: the stdout, stderr and exit code of fixed commands.

Each command runs through ``gridbench.cli.run`` in one temporary working
directory, with relative paths, so no transcript holds an absolute path.
The first command writes a small dataset; copies of it are then made
ARC-spaced, with one output digit flipped, truncated, and with an input
cell edited out of its verifier's domain, and ``evaluate`` reads each.
``validate``, ``render``, ``list`` and six usage errors follow. The
usage errors are gridbench's own messages and argparse's integer type
error, which read the same on every supported Python version.

The transcripts are recorded in ``cli_transcripts.json`` beside the
known answers, under the same rule: a change that alters one says so and
why, and only then re-records with::

    PYTHONPATH=src python tests/test_known_answers.py
"""

import io
import json
import os
import shutil
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from gridbench.cli import run

FIXTURE = Path(__file__).with_name("cli_transcripts.json")

GENERATE = ["generate", "--count", "2", "--seed", "1", "--out", "ds"]
COMMANDS = [
    ["evaluate", "--examples", "ds"],
    ["evaluate", "--examples", "spaced"],
    ["evaluate", "--examples", "flipped"],
    ["evaluate", "--examples", "truncated"],
    ["evaluate", "--examples", "edited"],
    ["validate"],
    ["render", "--task", "543a7ed5", "--seed", "7", "--index", "3"],
    ["render", "--task", "05269061"],
    ["render", "--file", "ds/1e0a9b12.json", "--split", "test"],
    ["render", "--file", "ds/67a423a3.json", "--index", "1"],
    ["list"],
    ["generate", "--count", "abc"],
    ["generate", "--set", "size=20"],
    ["render", "--task", "1e0a9b12", "--index", "x"],
    ["render", "--task", "67a423a3", "--split", "test"],
    ["render", "--file", "ds/67a423a3.json", "--seed", "5"],
    ["generate", "--task", "67a423a3", "--set", "size=5", "--set", "size=6"],
]

# The canonical file's end: the last output grid's "]]", then "}]}".
_TAIL = b"]]}]}"


@contextmanager
def _working_directory(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(argv)
    return {"argv": argv, "exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _copy(source: Path, name: str, task_id: str, edit) -> None:
    """A copy of the dataset ``source`` as ``name``, with ``edit`` applied to
    the bytes of ``<task_id>.json``."""
    target = Path(name)
    shutil.copytree(source, target)
    path = target / f"{task_id}.json"
    path.write_bytes(edit(path.read_bytes()))


def _flip_last_digit(data: bytes) -> bytes:
    # The last output cell of the test example, one color further on.
    at = len(data) - len(_TAIL) - 1
    return data[:at] + str((int(data[at : at + 1]) + 1) % 10).encode() + data[at + 1 :]


def _truncate(data: bytes) -> bytes:
    # Cut just after a digit halfway through: JSON then expects a comma.
    at = len(data) // 2
    while not data[at - 1 : at].isdigit():
        at -= 1
    return data[:at]


def _red_cell(data: bytes) -> bytes:
    # The first pink cell of the first input turns red: outside 543a7ed5's domain.
    return data.replace(b"6", b"2", 1)


def _derive_datasets(source: Path) -> None:
    spaced = Path("spaced")
    spaced.mkdir()
    for path in source.glob("*.json"):
        text = json.dumps(json.loads(path.read_text(encoding="utf-8")))
        (spaced / path.name).write_text(text, encoding="utf-8")
    _copy(source, "flipped", "1e0a9b12", _flip_last_digit)
    _copy(source, "truncated", "67a423a3", _truncate)
    _copy(source, "edited", "543a7ed5", _red_cell)


def transcripts() -> list[dict]:
    """The transcript of ``GENERATE``, then of each of ``COMMANDS``."""
    with tempfile.TemporaryDirectory() as tmp, _working_directory(tmp):
        records = [_run(GENERATE)]
        _derive_datasets(Path("ds"))
        records.extend(_run(argv) for argv in COMMANDS)
    return records


def record() -> None:
    FIXTURE.write_text(json.dumps(transcripts(), indent=1) + "\n", encoding="utf-8")


def test_cli_transcripts():
    assert transcripts() == json.loads(FIXTURE.read_text(encoding="utf-8"))
