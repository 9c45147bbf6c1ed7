"""Task files, dataset emission, evaluation, and golden checks."""

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridbench import (
    EvalReport,
    Example,
    FormatError,
    GenerationError,
    Grid,
    TaskScore,
    TaskSet,
    VerificationError,
    VerifierDomainError,
    emit_dataset,
    evaluate,
    format_percent,
    format_report,
    generate_examples,
    golden_check,
    load_task_file,
    lookup,
    register,
    render_text,
    save_task_file,
)
import gridbench.grid
from gridbench import harness, parallel
from gridbench.cli import run
from gridbench.framework import _REGISTRY, _on_cells
from gridbench.grid import LazyExamples, _cells
from gridbench.tasks import borders_and_holes

MINIMAL = TaskSet(
    train=[Example(input=Grid([[1]]), output=Grid([[2]]))],
    test=[Example(input=Grid([[0]]), output=Grid([[0]]))],
)

MINIMAL_BYTES = b'{"train":[{"input":[[1]],"output":[[2]]}],"test":[{"input":[[0]],"output":[[0]]}]}'


def test_save_minimal_file_is_byte_exact(tmp_path):
    path = tmp_path / "t.json"
    save_task_file(path, MINIMAL)
    assert path.read_bytes() == MINIMAL_BYTES


def test_load_round_trip(tmp_path):
    path = tmp_path / "t.json"
    save_task_file(path, MINIMAL)
    assert load_task_file(path) == MINIMAL


def test_a_canonical_file_reads_as_its_tuples_of_examples(tmp_path, make_task_set):
    path = tmp_path / "t.json"
    task_set = make_task_set("1e0a9b12", 3, 2)
    save_task_file(path, task_set)
    loaded = load_task_file(path)
    assert loaded == task_set and task_set == loaded
    assert loaded == load_task_file(path) and loaded != make_task_set("1e0a9b12", 3, 3)
    assert loaded.train[1:] == task_set.train[1:] and loaded.train[-1] == task_set.train[-1]
    assert list(loaded.test) == list(task_set.test) and repr(loaded) == repr(task_set)
    # A write through an example's row raises, and the task set stays as loaded.
    first = loaded.train[0].input
    with pytest.raises(TypeError):
        first[0][0] = (first[0][0] + 1) % 10
    assert loaded.train[0] == task_set.train[0]
    # A task set built from examples holds their checked cells, as one read
    # from a file does, and the judge takes it as it is.
    examples = list(generate_examples("1e0a9b12", 3, 2))
    cells = [(_cells(e.input), _cells(e.output)) for e in examples]
    assert isinstance(task_set.train, LazyExamples) and isinstance(task_set.test, LazyExamples)
    assert (task_set.train._pairs, task_set.test._pairs) == (cells[:3], cells[3:])
    assert harness._judge(_on_cells("1e0a9b12", lookup("1e0a9b12").verifier), task_set) == (4, 4)
    # A write through a row raises, so the examples save as they were made.
    before = path.read_bytes()
    with pytest.raises(TypeError):
        list(examples[1].output)[2][0] = 10
    save_task_file(path, TaskSet(train=examples[:3], test=examples[3:]))
    assert path.read_bytes() == before and [p.name for p in tmp_path.iterdir()] == ["t.json"]


def test_saving_a_loaded_file_writes_its_cells_and_builds_no_grid(tmp_path, monkeypatch):
    emit_dataset(["543a7ed5", "05269061"], 4, 3, tmp_path / "ds")
    paths = [tmp_path / "ds" / f"{task_id}.json" for task_id in ("543a7ed5", "05269061")]
    loaded = {path: load_task_file(path) for path in paths}

    def refuse(*args):
        raise AssertionError("a Grid was built")

    monkeypatch.setattr(Grid, "__init__", refuse)
    monkeypatch.setattr(gridbench.grid, "_grid", refuse)
    for path, task_set in loaded.items():
        save_task_file(tmp_path / path.name, task_set)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize(
    "payload",
    [
        '{"train":[{"input":[[10]],"output":[[0]]}],"test":[{"input":[[0]],"output":[[0]]}]}',
        '{"train":[{"input":[[1]],"output":[[0]]}],"test":[]}',
        '{"train":[{"input":[[1]],"output":[[0]]}],"test":[{"input":[[0]]}]}',
        '{"train":[],"test":[{"input":[[0]],"output":[[0]]}]}',
        '{"train":[{"input":[[1]],"output":[[0]]}],"test":[{"input":[[0]],"output":[[0]]}],"extra":1}',
        '{"train":[{"input":[[1],[1,2]],"output":[[0]]}],"test":[{"input":[[0]],"output":[[0]]}]}',
        '{"train":[{"input":[[1.0]],"output":[[0]]}],"test":[{"input":[[0]],"output":[[0]]}]}',
        '{"train":[{"input":[[true]],"output":[[0]]}],"test":[{"input":[[0]],"output":[[0]]}]}',
        '{"train":[{"input":[[1]],"output":[[0]],"why":1}],"test":[{"input":[[0]],"output":[[0]]}]}',
        "[1, 2, 3]",
        "{not json",
        pytest.param(b'{"train":\xff}', id="not-utf-8"),
        pytest.param('{"train":' + "[" * 5000, id="deep-nesting"),
        pytest.param('{"train":' + "1" * 5000 + "}", id="5000-digit-integer"),
    ],
)
def test_load_rejects_malformed_files(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "):
        load_task_file(path)


def test_load_error_names_the_file_and_element(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"train":[{"input":[[1]],"output":[[11]]}],"test":[{"input":[[0]],"output":[[0]]}]}',
        encoding="utf-8",
    )
    with pytest.raises(FormatError, match=r"bad\.json.*train\[0\]\.output"):
        load_task_file(path)


def test_load_error_names_the_first_bad_cell(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"train":[{"input":[[1]],"output":[[2]]},{"input":[[0,1.5]],"output":[[0,1]]}],'
        '"test":[{"input":[[0]],"output":[[0]]}]}',
        encoding="utf-8",
    )
    with pytest.raises(FormatError) as info:
        load_task_file(path)
    assert str(info.value) == (
        f"{path}: train[1].input: cell (0, 1) holds 1.5, not a color code in [0, 9]"
    )


def test_emit_dataset_writes_files_and_manifest(tmp_path):
    out = tmp_path / "d"
    assert emit_dataset(["543a7ed5", "1e0a9b12"], 3, 9, out) == []
    assert sorted(p.name for p in out.iterdir()) == [
        "1e0a9b12.json",
        "543a7ed5.json",
        "manifest.json",
    ]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["master_seed"] == 9
    assert [t["id"] for t in manifest["tasks"]] == ["1e0a9b12", "543a7ed5"]
    assert all(t["train_count"] == 3 and t["test_count"] == 1 for t in manifest["tasks"])
    for entry in manifest["tasks"]:
        ts = load_task_file(out / entry["file"])
        assert len(ts.train) == 3
        assert len(ts.test) == 1


def test_emit_dataset_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_dataset(["67a423a3", "05269061"], 4, 11, a)
    emit_dataset(["67a423a3", "05269061"], 4, 11, b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_emit_dataset_writes_a_repeated_task_once(tmp_path):
    once, twice = tmp_path / "once", tmp_path / "twice"
    emit_dataset(["1e0a9b12"], 2, 5, once)
    emit_dataset(["1e0a9b12", "1e0a9b12"], 2, 5, twice)
    assert sorted(p.name for p in twice.iterdir()) == sorted(p.name for p in once.iterdir())
    for path in once.iterdir():
        assert (twice / path.name).read_bytes() == path.read_bytes()


def test_emit_dataset_rejects_zero_train(tmp_path):
    out = tmp_path / "d"
    for count, message in [
        (0, "count 0 outside [1, 18446744073709551615]"),
        (2**64, "count 18446744073709551616 outside [1, 18446744073709551615]"),
        (True, "count must be an integer, got True"),
        (2.5, "count must be an integer, got 2.5"),
    ]:
        with pytest.raises(ValueError) as info:
            emit_dataset(["543a7ed5"], count, 0, out)
        assert str(info.value) == message
        assert not out.exists()


@pytest.mark.parametrize("umask", [None, 0o077], ids=["umask-unchanged", "umask-077"])
def test_save_leaves_another_writers_temp_file_alone(tmp_path, umask):
    # Another writer may be mid-write in .t.json.tmp; saving t.json must
    # neither truncate nor move that file.
    foreign = tmp_path / ".t.json.tmp"
    foreign.write_text("partial", encoding="utf-8")
    # A umask set after import applies to the saved file as to any other.
    previous = None if umask is None else os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        plain.write_text("", encoding="utf-8")
        save_task_file(tmp_path / "t.json", MINIMAL)
    finally:
        if previous is not None:
            os.umask(previous)
    assert foreign.read_text(encoding="utf-8") == "partial"
    assert load_task_file(tmp_path / "t.json") == MINIMAL
    assert sorted(p.name for p in tmp_path.iterdir()) == [".t.json.tmp", "plain.txt", "t.json"]
    # The file gets the mode of any new file, not the 0600 of a temporary one.
    assert (tmp_path / "t.json").stat().st_mode == plain.stat().st_mode


@pytest.mark.parametrize("failing", ["1e0a9b12.json", "manifest.json"])
def test_failed_write_keeps_the_previous_file_and_no_temp_file(tmp_path, monkeypatch, failing):
    out = tmp_path / "d"
    emit_dataset(["1e0a9b12"], 2, 1, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    class DiskFull:
        """Every chunk but the last reaches the disk, then half of the last,
        then the write fails."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def writelines(self, chunks):
            *whole, last = chunks
            self.handle.writelines(whole)
            self.handle.write(last[: len(last) // 2])
            self.handle.flush()
            assert os.path.getsize(self.handle.name) > 0
            raise OSError(28, "No space left on device")

    def disk_full(file, *args, **kwargs):
        handle = open(file, *args, **kwargs)
        return DiskFull(handle) if failing in Path(file).name else handle

    monkeypatch.setattr(harness, "open", disk_full, raising=False)
    with pytest.raises(OSError):
        emit_dataset(["1e0a9b12"], 3, 2, out)
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    assert (out / failing).read_bytes() == before[failing]


class OddExample(ValueError):
    """An error that pickle cannot rebuild: its ``__init__`` takes two
    arguments, but its ``args`` hold only the message."""

    def __init__(self, task_id, index):
        super().__init__(f"task {task_id}: example {index} is odd")


@pytest.fixture
def failing_tasks(request):
    """Five tasks whose example 5, or the index a test passes indirectly,
    fails: the first's generator raises, the second's verifier disagrees with
    the output, the third's verifier rejects the input as outside its domain,
    the fourth's generator raises an :class:`OddExample` and the fifth's
    raises ``SystemExit(3)``, as ``sys.exit(3)`` does."""
    bad = getattr(request, "param", 5)

    def generate(rng=None, level=0):  # level only lets a test pass an override
        if rng.example_index == bad and rng.task_id == "f0000005":
            raise GenerationError(f"no layout for example {bad}")
        if rng.example_index == bad and rng.task_id == "f3000005":
            raise OddExample(rng.task_id, bad)
        if rng.example_index == bad and rng.task_id == "f4000005":
            raise SystemExit(3)
        grid = Grid([[int(rng.example_index == bad)]])
        return Example(input=grid, output=grid)

    def verifier(grid):
        return Grid([[0]]) if grid[0][0] == 1 else grid

    def verifier_domain(grid):
        if grid[0][0] == 1:
            raise VerifierDomainError(f"example {bad} is outside the domain")
        return grid

    register(SimpleNamespace(TASK_ID="f0000005", generate=generate, verifier=lambda grid: grid))
    register(SimpleNamespace(TASK_ID="f1000005", generate=generate, verifier=verifier))
    register(SimpleNamespace(TASK_ID="f2000005", generate=generate, verifier=verifier_domain))
    register(SimpleNamespace(TASK_ID="f3000005", generate=generate, verifier=lambda grid: grid))
    register(SimpleNamespace(TASK_ID="f4000005", generate=generate, verifier=lambda grid: grid))
    try:
        yield {
            "f0000005": GenerationError,
            "f1000005": VerificationError,
            "f2000005": VerifierDomainError,
            "f3000005": OddExample,
            "f4000005": SystemExit,
        }
    finally:
        for task_id in ("f0000005", "f1000005", "f2000005", "f3000005", "f4000005"):
            del _REGISTRY[task_id]


@pytest.mark.parametrize("task_id", ["f0000005", "f1000005"])
@pytest.mark.parametrize("overrides", [None, {"level": 1}], ids=["checked", "overrides"])
def test_failure_midway_through_a_stream_keeps_the_previous_files(tmp_path, failing_tasks, task_id, overrides):
    out = tmp_path / "d"
    emit_dataset([task_id], 3, 1, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(failing_tasks[task_id]):
        emit_dataset([task_id], 9, 2, out, overrides)
    # No temporary file is left, and the previous files are untouched.
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_domain_error_fails_emit_dataset_but_not_a_variation(tmp_path, failing_tasks):
    out = tmp_path / "d"
    emit_dataset(["f2000005"], 3, 1, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    with pytest.raises(VerifierDomainError, match="example 5"):
        emit_dataset(["f2000005"], 9, 2, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # With overrides, as under generate --set, the examples are written
    # unchecked and the task is named.
    assert emit_dataset(["f2000005"], 9, 2, out, {"level": 1}) == ["f2000005"]
    assert len(load_task_file(out / "f2000005.json").train) == 9


def test_domain_error_without_overrides_stops_at_its_example(tmp_path):
    # Example 2 leaves the verifier's domain: generation stops there, not
    # after all 51 examples, and an empty override dict changes nothing.
    calls = []

    def generate(rng=None):
        calls.append(rng.example_index)
        grid = Grid([[rng.example_index % 10]])
        return Example(input=grid, output=grid)

    def verifier(grid):
        if grid[0][0] == 2:
            raise VerifierDomainError("example 2 is outside the domain")
        return grid

    register(SimpleNamespace(TASK_ID="f3000002", generate=generate, verifier=verifier))
    try:
        for make in (
            lambda: emit_dataset(["f3000002"], 50, 1, tmp_path / "d"),
            lambda: list(generate_examples("f3000002", 50, 1)),
            lambda: list(generate_examples("f3000002", 50, 1, {})),
        ):
            calls.clear()
            with pytest.raises(VerifierDomainError, match="^example 2 is outside the domain$"):
                make()
            assert calls == [0, 1, 2]
    finally:
        del _REGISTRY["f3000002"]
    assert list((tmp_path / "d").iterdir()) == []


def test_failure_after_the_first_example_leaves_an_empty_directory(tmp_path, failing_tasks):
    out = tmp_path / "d"
    with pytest.raises(GenerationError):
        emit_dataset(["f0000005"], 9, 1, out)
    assert list(out.iterdir()) == []


def _cpus(monkeypatch, cpus):
    """Make ``emit_dataset`` run as on ``cpus`` usable CPUs, with a helper
    process worth forking for any amount of work; returns the list that gets
    the pid of each helper forked."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parallel, "_HELPER_S", 1e-9)
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "options",
    [
        [],
        ["--task", "543a7ed5", "--set", "size=30", "--set", "boxes=1"],
        ["--task", "543a7ed5", "--set", "colors=2,2,2"],
    ],
    ids=["defaults", "543a7ed5-size-30", "543a7ed5-unchecked"],
)
def test_generate_writes_the_same_bytes_with_any_number_of_helpers(tmp_path, monkeypatch, capsys, options):
    # The last block holds the test example alone; 8 helpers outnumber the
    # blocks of one task.
    count = str(3 * harness._BLOCK)
    argv = ["generate", "--count", count, "--seed", "3", "--out", str(tmp_path / "d"), *options]
    runs = []
    for cpus in (1, 2, 8):
        forked = _cpus(monkeypatch, cpus)
        code = run(argv)
        runs.append((code, *capsys.readouterr(), _files(tmp_path / "d")))
        assert (len(forked) > 1) == (cpus > 1)
        _no_child_left()
        shutil.rmtree(tmp_path / "d")
    assert runs[0] == runs[1] == runs[2]
    code, _, err, _ = runs[0]
    assert code == 0
    warning = (
        "warning: task 543a7ed5: variation is outside the verifier domain; "
        "examples were not consistency-checked\n"
    )
    assert err == (warning if "colors=2,2,2" in options else "")


@pytest.mark.parametrize("failing_tasks", [37], indirect=True)
@pytest.mark.parametrize("task_id", ["f0000005", "f1000005", "f2000005", "f3000005", "f4000005"])
def test_a_failure_in_a_helper_reaches_the_caller_unchanged(tmp_path, monkeypatch, failing_tasks, task_id):
    out = tmp_path / "d"
    emit_dataset([task_id], 3, 1, out)
    before = _files(out)
    raised = []
    for cpus in (1, 2):
        forked = _cpus(monkeypatch, cpus)
        with pytest.raises(failing_tasks[task_id]) as info:
            emit_dataset([task_id], 50, 2, out)
        raised.append((type(info.value), str(info.value)))
        assert len(forked) == (0 if cpus == 1 else 2)
        # No temporary file is left, and the previous files are untouched.
        assert _files(out) == before
        _no_child_left()
    assert raised[0] == raised[1]
    if task_id == "f2000005":  # with overrides a helper's block is written unchecked
        assert emit_dataset([task_id], 50, 2, out, {"level": 1}) == [task_id]
        _no_child_left()


def test_blocks_hands_out_what_make_makes_in_order(monkeypatch):
    # Blocks knows nothing of tasks: any make(k) giving bytes and a mark will
    # do. Block 40 ends the helper that makes it, with status 5.
    caller = os.getpid()

    def make(k):
        if k == 40 and os.getpid() != caller:
            os._exit(5)
        return str(k).encode() * k, k % 3 == 0

    forked = _cpus(monkeypatch, 2)
    blocks = parallel.Blocks(41, make, 1.0)
    try:
        made = [blocks.get(k) for k in range(40)]
        with pytest.raises(parallel.HelperLost) as info:
            blocks.get(40)
    finally:
        blocks.close()
    assert made == [make(k) for k in range(40)]
    assert info.value.args == (5,) and len(forked) == 2
    _no_child_left()


def test_a_helper_that_dies_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    # Example 37 ends its helper; the other helper then hangs on a later
    # block until the caller kills it.
    caller = os.getpid()

    def generate(rng=None):
        if rng.example_index >= 37:
            assert os.getpid() != caller, "a helper's example was made by the caller"
            if rng.example_index == 37:
                os._exit(3)
            if rng.example_index >= 40:
                time.sleep(60)
        grid = Grid([[0]])
        return Example(input=grid, output=grid)

    register(SimpleNamespace(TASK_ID="f4000037", generate=generate, verifier=lambda grid: grid))
    forked = _cpus(monkeypatch, 2)
    out = tmp_path / "d"
    started = time.monotonic()
    try:
        code = run(["generate", "--task", "f4000037", "--count", "50", "--out", str(out)])
    finally:
        del _REGISTRY["f4000037"]
    assert time.monotonic() - started < 30
    start = 37 // harness._BLOCK * harness._BLOCK
    assert code == 1 and len(forked) == 2
    assert capsys.readouterr() == (
        "",
        f"error: task f4000037: the helper process making examples {start} to "
        f"{start + harness._BLOCK - 1} ended with status 3\n",
    )
    assert list(out.iterdir()) == []
    _no_child_left()


def test_a_slow_block_holds_back_no_block_after_it(tmp_path, monkeypatch):
    # A helper takes 1 s over the block of examples 16 to 23; the other
    # helper claims and makes every later block meanwhile.
    caller = os.getpid()
    log = tmp_path / "made"

    def generate(rng=None):
        if rng.example_index == 16 and os.getpid() != caller:
            time.sleep(1)
        with open(log, "a", encoding="utf-8") as made:
            made.write(f"{os.getpid()} {rng.example_index}\n")
        grid = Grid([[rng.example_index % 10]])
        return Example(input=grid, output=grid)

    register(SimpleNamespace(TASK_ID="f5000016", generate=generate, verifier=lambda grid: grid))
    try:
        emit_dataset(["f5000016"], 80, 1, tmp_path / "serial")
        forked = _cpus(monkeypatch, 2)
        log.unlink()
        emit_dataset(["f5000016"], 80, 1, tmp_path / "d")
    finally:
        del _REGISTRY["f5000016"]
    makers = dict(reversed(line.split()) for line in log.read_text(encoding="utf-8").splitlines())
    assert sorted(map(int, makers)) == list(range(81))
    slow = makers["16"]
    later = {makers[str(index)] for index in range(24, 81)}
    assert len(forked) == 2 and later == {str(pid) for pid in forked} - {slow}
    assert _files(tmp_path / "d") == _files(tmp_path / "serial")
    _no_child_left()


def test_a_helper_that_dies_holding_the_token_ends_in_one_error(tmp_path, monkeypatch):
    # The helper that reads block 5 of the run as the next one ends before it
    # claims it; the other helper waits for the token until it is killed.
    caller = os.getpid()
    read = os.read

    def dies_on_token_5(fd, size):
        data = read(fd, size)
        if size == 8 and data == (5).to_bytes(8, "little") and os.getpid() != caller:
            os._exit(9)
        return data

    forked = _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "read", dies_on_token_5)
    started = time.monotonic()
    with pytest.raises(GenerationError) as info:
        emit_dataset(["67a423a3"], 80, 1, tmp_path / "d")
    assert time.monotonic() - started < 5
    assert len(forked) == 2
    assert str(info.value) == (
        "task 67a423a3: the helper process making examples 48 to 55 ended with status 9"
    )
    _no_child_left()


def test_no_helper_outlives_a_killed_caller(tmp_path):
    # The caller is killed while eight helpers share two CPUs, so some wait
    # for the token. A helper that then takes the token cannot claim a block,
    # and it passes the token on all the same: no helper is left waiting.
    script = f"""
import os, signal, sys
from types import SimpleNamespace
from gridbench import Example, Grid, emit_dataset, parallel, register
os.sched_getaffinity = lambda pid: set(range(8))
parallel._HELPER_S = 1e-9
caller, fork = os.getpid(), os.fork

def logged():
    pid = fork()
    if pid == 0:
        with open({str(tmp_path / "helpers")!r}, "a", encoding="utf-8") as helpers:
            helpers.write(f"{{os.getpid()}}\\n")
    return pid

def generate(rng=None):
    if rng.example_index == 2000:
        os.kill(caller, signal.SIGKILL)
    grid = Grid([[0]])
    return Example(input=grid, output=grid)

os.fork = logged
register(SimpleNamespace(TASK_ID="f6002000", generate=generate, verifier=lambda grid: grid))
emit_dataset(["f6002000"], 4000, 1, sys.argv[1])
"""

    def running(pid):  # an orphan that has ended may stay a zombie
        try:
            stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
        except FileNotFoundError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    for attempt in range(3):
        (tmp_path / "helpers").unlink(missing_ok=True)
        code = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / str(attempt))],
            env=env,
            stdout=subprocess.DEVNULL,  # a helper left running would hold a captured stream open
            stderr=subprocess.DEVNULL,
        ).returncode
        assert code == -signal.SIGKILL
        helpers = set((tmp_path / "helpers").read_text(encoding="utf-8").split())
        assert len(helpers) > 1
        deadline = time.monotonic() + 10
        while any(map(running, helpers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in helpers if running(pid)]
        for pid in left:
            os.kill(int(pid), signal.SIGKILL)
        assert left == []


def test_a_failed_fork_makes_the_blocks_in_the_caller(tmp_path, monkeypatch):
    emit_dataset(["67a423a3"], 40, 1, tmp_path / "serial")
    forked = _cpus(monkeypatch, 2)
    counted = os.fork

    def second_fails():
        if forked:  # by now the first helper has claimed blocks; it is killed unread
            time.sleep(0.2)
            raise OSError(11, "Resource temporarily unavailable")
        return counted()

    monkeypatch.setattr(os, "fork", second_fails)
    emit_dataset(["67a423a3"], 40, 1, tmp_path / "d")
    assert len(forked) == 1
    assert _files(tmp_path / "d") == _files(tmp_path / "serial")
    _no_child_left()


def test_no_helper_is_forked_while_another_thread_runs(tmp_path, monkeypatch):
    forked = _cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        emit_dataset(["67a423a3"], 40, 1, tmp_path / "d")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forked == []


def test_helpers_never_flush_the_callers_buffers(tmp_path):
    # A helper that left through sys.exit would flush its copy of the
    # caller's stdout buffer, printing "x" once more. Without os.kill the
    # caller waits for each helper to leave by itself.
    script = f"""
import os, sys
from gridbench import emit_dataset, parallel
os.sched_getaffinity = lambda pid: {{0, 1}}
os.kill = lambda pid, signal: None
parallel._HELPER_S = 1e-9
forks, fork = [], os.fork
os.fork = lambda: forks.append(fork()) or forks[-1]
print("x", end="")
emit_dataset(["67a423a3"], 40, 1, {str(tmp_path / "d")!r})
print(len(forks), file=sys.stderr)
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={
            **{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
            "PYTHONPATH": str(Path(harness.__file__).parents[1]),
        },
        capture_output=True,
        encoding="utf-8",
        check=True,
    )
    assert (result.stdout, result.stderr) == ("x", "2\n")


def test_evaluate_bundled_verifiers_pass(tmp_path):
    from gridbench import lookup, task_ids

    emit_dataset(task_ids(), 3, 5, tmp_path)
    programs = {tid: lookup(tid).verifier for tid in task_ids()}
    report = evaluate(tmp_path, programs)
    n = len(task_ids())
    assert report.tasks_passed == report.tasks_total == n
    assert report.percent == 100.0
    assert format_report(report).splitlines()[-1] == f"Examples pass for {n}/{n} tasks (100%)"


def test_evaluate_constant_program_fails_its_task(tmp_path):
    from gridbench import lookup, task_ids

    emit_dataset(task_ids(), 3, 5, tmp_path)
    programs = {tid: lookup(tid).verifier for tid in task_ids()}
    programs["1e0a9b12"] = lambda g: Grid([[0]])
    report = evaluate(tmp_path, programs)
    n = len(task_ids())
    assert report.tasks_passed == n - 1
    assert report.tasks_total == n
    assert report.per_task["1e0a9b12"].pass_count == 0
    tally = f"Examples pass for {n - 1}/{n} tasks ({format_percent(100 * (n - 1) / n)}%)"
    assert format_report(report).splitlines()[-1] == tally


def _raise(error):
    raise error


@pytest.mark.parametrize(
    "program",
    [lambda grid: _raise(RuntimeError("no")), lambda grid: sys.exit(0)],
    ids=["raises", "sys-exit"],
)
def test_evaluate_crashing_program_counts_as_failure(tmp_path, program):
    emit_dataset(["543a7ed5"], 2, 5, tmp_path)
    report = evaluate(tmp_path, {"543a7ed5": program})
    score = report.per_task["543a7ed5"]
    assert score.pass_count == 0
    assert score.total_count == 3
    assert not score.passed


def test_evaluate_lets_keyboard_interrupt_through(tmp_path):
    emit_dataset(["543a7ed5"], 2, 5, tmp_path)
    with pytest.raises(KeyboardInterrupt):
        evaluate(tmp_path, {"543a7ed5": lambda grid: _raise(KeyboardInterrupt)})


def test_evaluate_checks_list_results(tmp_path):
    from gridbench import lookup

    emit_dataset(["05269061"], 2, 5, tmp_path)
    verify = lookup("05269061").verifier

    def as_lists(grid):
        return verify(grid).to_lists()

    def with_float_cell(grid):
        rows = as_lists(grid)
        rows[0][0] = float(rows[0][0])  # equal in value, but not a color code
        return rows

    assert evaluate(tmp_path, {"05269061": as_lists}).per_task["05269061"].passed
    for program in (with_float_cell, lambda grid: [[1.5]], lambda grid: [[1], [2, 3]]):
        score = evaluate(tmp_path, {"05269061": program}).per_task["05269061"]
        assert score.pass_count == 0 and score.total_count == 3


def test_evaluate_fails_a_program_that_writes_to_its_input(tmp_path):
    from gridbench import lookup, task_ids

    emit_dataset(task_ids(), 3, 5, tmp_path)
    verifiers = {tid: lookup(tid).verifier for tid in task_ids()}

    def answer_then_overwrite(verify):
        def program(grid):
            answer = verify(grid)
            for row in grid:
                row[:] = [9 - cell for cell in row]  # a grid is immutable: TypeError
            return answer

        return program

    report = evaluate(tmp_path, {tid: answer_then_overwrite(v) for tid, v in verifiers.items()})
    assert all(score.pass_count == 0 for score in report.per_task.values())
    assert evaluate(tmp_path, verifiers).percent == 100.0


def test_evaluate_passes_a_program_that_edits_its_input_as_lists(tmp_path):
    from gridbench import lookup, task_ids

    emit_dataset(task_ids(), 3, 5, tmp_path)

    def edit_lists(verify):
        def program(grid):
            rows = grid.to_lists()
            for row, answer in zip(rows, verify(grid)):
                row[:] = answer
            return rows

        return program

    report = evaluate(tmp_path, {tid: edit_lists(lookup(tid).verifier) for tid in task_ids()})
    assert report.percent == 100.0


def test_evaluate_judges_each_example_once_after_checking_the_whole_file(tmp_path):
    from gridbench import lookup

    emit_dataset(["67a423a3"], 20, 5, tmp_path)
    path = tmp_path / "67a423a3.json"
    canonical = path.read_text(encoding="utf-8")
    body = canonical[: -len(harness._TAIL)]
    verify = lookup("67a423a3").verifier
    calls = []

    def program(grid):
        calls.append(grid)
        return verify(grid)

    def judged():
        calls.clear()
        return evaluate(tmp_path, {"67a423a3": program}).per_task["67a423a3"]

    assert judged() == TaskScore(21, 21) and len(calls) == 21
    # The last output cell is not a digit: the file fails before any example is judged.
    path.write_text(body[:-1] + "a" + harness._TAIL.decode(), encoding="utf-8")
    with pytest.raises(FormatError, match=re.escape(str(path))):
        judged()
    assert calls == []
    # ARC spacing in the last grid alone: the JSON path judges each example once.
    head, sep, last = body.rpartition('"output":[[')
    spaced = head + sep + last.replace(",", ", ") + harness._TAIL.decode()
    assert spaced != canonical
    path.write_text(spaced, encoding="utf-8")
    assert judged() == TaskScore(21, 21) and len(calls) == 21


def _flipped(grid):
    """``grid`` with its first cell one color further on."""
    rows = grid.to_lists()
    rows[0][0] = (rows[0][0] + 1) % 10
    return Grid(rows)


def _edit_out_of_domain(task_id, rows):
    if task_id == "67a423a3":  # no crossing
        for row in rows:
            row[:] = [0] * len(row)
        return
    # Another color on the first nonzero cell: an alien 543a7ed5 color, a
    # second color in a 05269061 class, another 1e0a9b12 color.
    r, c = next((r, c) for r, row in enumerate(rows) for c, v in enumerate(row) if v)
    rows[r][c] = rows[r][c] % 9 + 1


@pytest.mark.parametrize("task_id", ["05269061", "1e0a9b12", "543a7ed5", "67a423a3"])
def test_cells_judge_and_grid_judge_give_the_same_score(tmp_path, monkeypatch, task_id):
    from gridbench import lookup

    emit_dataset([task_id], 6, 5, tmp_path)
    path = tmp_path / f"{task_id}.json"
    task_set = load_task_file(path)
    examples = [*task_set.train, *task_set.test]
    # One output cell changed, an input moved out of the domain, and an
    # output of another shape: each fails its example.
    examples[0] = Example(examples[0].input, _flipped(examples[0].output))
    rows = examples[1].input.to_lists()
    _edit_out_of_domain(task_id, rows)
    examples[1] = Example(Grid(rows), examples[1].output)
    examples[-1] = Example(examples[-1].input, Grid([row[:-1] for row in examples[-1].output]))
    save_task_file(path, TaskSet(train=examples[:-1], test=examples[-1:]))
    task = lookup(task_id)
    cells_calls = []
    verify_cells = task.verify_cells
    monkeypatch.setattr(task, "verify_cells", lambda cells: cells_calls.append(cells) or verify_cells(cells))
    by_cells = evaluate(tmp_path, {task_id: task.verifier}).per_task[task_id]
    assert len(cells_calls) == 7
    grid_calls = []

    def program(grid):
        grid_calls.append(grid)
        return task.verifier(grid)

    by_grid = evaluate(tmp_path, {task_id: program}).per_task[task_id]
    assert len(grid_calls) == 7
    # The Grid entries that register derives run verify_cells too; 67a423a3's
    # walk, the one entry a task defines itself, does not.
    assert len(cells_calls) == 7 + 7 * (task_id != "67a423a3")
    assert by_cells == by_grid == TaskScore(4, 7)


def test_an_arc_spaced_copy_reads_to_the_same_cells_and_report(tmp_path):
    from gridbench import lookup, task_ids

    canonical, spaced = tmp_path / "canonical", tmp_path / "spaced"
    emit_dataset(task_ids(), 4, 9, canonical)
    # One output cell changed, so that one task fails on both copies.
    path = canonical / "1e0a9b12.json"
    task_set = load_task_file(path)
    examples = [*task_set.train, *task_set.test]
    examples[2] = Example(examples[2].input, _flipped(examples[2].output))
    save_task_file(path, TaskSet(train=examples[:-1], test=examples[-1:]))
    spaced.mkdir()
    for source in canonical.glob("*.json"):
        text = source.read_text(encoding="utf-8")
        spaced_text = json.dumps(json.loads(text))  # ARC spacing: ", " and ": "
        (spaced / source.name).write_text(spaced_text, encoding="utf-8")
        if source.name != "manifest.json":
            assert spaced_text != text
            read, want = load_task_file(spaced / source.name), load_task_file(source)
            for split, want_split in ((read.train, want.train), (read.test, want.test)):
                assert isinstance(split, LazyExamples) and split._pairs == want_split._pairs
    verifiers = {tid: lookup(tid).verifier for tid in task_ids()}
    wrappers = {tid: lambda grid, verify=verify: verify(grid) for tid, verify in verifiers.items()}
    for programs in (verifiers, wrappers):
        report = evaluate(canonical, programs)
        assert evaluate(spaced, programs) == report
        assert report.tasks_passed == len(task_ids()) - 1 and not report.per_task["1e0a9b12"].passed


def test_evaluate_rejects_a_path_that_is_not_a_directory(tmp_path):
    with pytest.raises(NotADirectoryError, match="missing is not a directory"):
        evaluate(tmp_path / "missing", {})


def test_evaluate_skips_tasks_without_programs(tmp_path):
    emit_dataset(["543a7ed5", "67a423a3"], 2, 5, tmp_path)
    from gridbench import lookup

    report = evaluate(tmp_path, {"543a7ed5": lookup("543a7ed5").verifier})
    assert report.skipped == ("67a423a3",)
    assert report.tasks_total == 1
    assert "Skipping task 67a423a3 (no program)" in format_report(report)


def test_report_invariants_are_enforced():
    for pass_count, total_count in ((2, 1), (-1, 2)):
        with pytest.raises(ValueError):
            TaskScore(pass_count=pass_count, total_count=total_count)


def test_report_tallies_are_derived_from_per_task_scores():
    assert [TaskScore(p, t).passed for p, t in ((0, 0), (1, 2), (2, 2))] == [False, False, True]
    report = EvalReport.from_scores({"a": (2, 2), "b": (1, 2), "c": (3, 3)}, ["d"])
    assert (report.tasks_passed, report.tasks_total, report.skipped) == (2, 3, ("d",))
    assert report.percent == 100.0 * 2 / 3
    empty = EvalReport.from_scores({})
    assert (empty.tasks_passed, empty.tasks_total, empty.percent) == (0, 0, 0.0)


def test_format_percent_trims_zeros():
    assert format_percent(100.0) == "100"
    assert format_percent(25.0) == "25"
    assert format_percent(16.25) == "16.25"
    assert format_percent(100 / 3) == "33.33"
    assert format_percent(0.0) == "0"


def test_format_report_lines():
    report = EvalReport.from_scores({"aaaaaaaa": (2, 2), "bbbbbbbb": (1, 2)})
    assert format_report(report).splitlines() == [
        "Testing task aaaaaaaa ... pass",
        "Testing task bbbbbbbb ... FAIL",
        "Examples pass for 1/2 tasks (50%)",
    ]


def test_golden_check_detects_one_flipped_cell(tmp_path):
    path = tmp_path / "543a7ed5.json"
    save_task_file(path, borders_and_holes.validate())
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["train"][0]["output"][7][7] = (payload["train"][0]["output"][7][7] + 1) % 10
    path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    assert golden_check("543a7ed5", tmp_path) is False


def test_golden_check_not_applicable_without_data(tmp_path):
    assert golden_check("1e0a9b12") is None
    with pytest.raises(NotADirectoryError):
        golden_check("1e0a9b12", tmp_path / "missing")


def test_golden_check_runs_verifier_for_fixtureless_tasks(tmp_path, make_task_set):
    path = tmp_path / "1e0a9b12.json"
    ts = make_task_set("1e0a9b12", 3, master_seed=3)
    save_task_file(path, ts)
    assert golden_check("1e0a9b12", tmp_path) is True
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["test"][0]["output"][0][0] = (payload["test"][0]["output"][0][0] + 1) % 10
    path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    assert golden_check("1e0a9b12", tmp_path) is False


def test_reduced_generator_is_caught_by_golden_comparison():
    # Negative control: a generator that only draws closed boxes (no hole
    # logic) cannot reproduce the golden pairs, no matter its parameters.
    def reduced_generate(rows, cols, widths, heights, size=15):
        grid = [[8] * size for _ in range(size)]
        out = [[8] * size for _ in range(size)]
        for row, col, width, height in zip(rows, cols, widths, heights):
            for r in range(row - 1, row + height + 1):
                for c in range(col - 1, col + width + 1):
                    out[r][c] = 3
                    if row <= r < row + height and col <= c < col + width:
                        grid[r][c] = 6
                        out[r][c] = 6
        return Example(input=Grid(grid), output=Grid(out))

    golden = borders_and_holes.validate()
    reduced = reduced_generate(rows=[2, 4, 10], cols=[8, 3, 5], widths=[4, 2, 4], heights=[5, 2, 4])
    assert reduced != golden.train[0]
    assert reduced.input != golden.train[0].input
    # The difference is exactly the missing hole: 40 pink cells instead of 34.
    assert sum(v == 6 for row in reduced.input for v in row) == 40


def test_render_text_round_trips_through_files(tmp_path, make_task_set):
    ts = make_task_set("05269061", 2, master_seed=8)
    path = tmp_path / "t.json"
    save_task_file(path, ts)
    loaded = load_task_file(path)
    assert render_text(loaded.train[0].input) == render_text(ts.train[0].input)
