"""Command-line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gridbench
from gridbench import format_percent, task_ids
from gridbench.cli import run


def test_list(capsys):
    assert run(["list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "05269061",
        "1e0a9b12",
        "543a7ed5",
        "67a423a3",
    ]


def test_generate_defaults_emit_all_tasks(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(["generate", "--out", str(out), "--seed", "7"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"{task_id}.json" for task_id in task_ids()] + ["manifest.json"]
    stdout = capsys.readouterr().out
    assert stdout.count("3 train + 1 test") == len(task_ids())
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["master_seed"] == 7


def test_generate_single_task_with_count(tmp_path):
    out = tmp_path / "d"
    assert run(["generate", "--task", "543a7ed5", "--count", "10", "--seed", "7", "--out", str(out)]) == 0
    payload = json.loads((out / "543a7ed5.json").read_text(encoding="utf-8"))
    assert len(payload["train"]) == 10
    assert len(payload["test"]) == 1


def test_generate_unknown_task_fails_cleanly(tmp_path, capsys):
    assert run(["generate", "--task", "00000000", "--out", str(tmp_path / "d")]) == 1
    assert "unknown task" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "-1"], "master_seed -1 outside [0, 18446744073709551615]"),
        (["--task", "nope"], "unknown task 'nope'"),
    ],
)
def test_generate_failing_before_its_first_file_leaves_no_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "d"
    assert run(["generate", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_generate_rejects_non_positive_count(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(["generate", "--count", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: count 0 outside [1, 18446744073709551615]\n"
    assert not out.exists()
    # A count past the 64-bit example index space fails before generating.
    assert run(["generate", "--count", str(2**64), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: count {2**64} outside [1, {2**64 - 1}]\n"
    argv = ["generate", "--task", "543a7ed5", "--set", "size=20", "--count", str(2**64), "--out", str(out)]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: count {2**64} outside [1, {2**64 - 1}]\n"
    assert not out.exists()


def test_generate_variation_override(tmp_path):
    out = tmp_path / "d"
    assert run(
        [
            "generate", "--task", "543a7ed5", "--count", "2", "--seed", "3",
            "--out", str(out), "--set", "size=20", "--set", "boxes=4",
        ]
    ) == 0
    payload = json.loads((out / "543a7ed5.json").read_text(encoding="utf-8"))
    assert len(payload["train"][0]["input"]) == 20


def test_generate_variation_outside_domain_warns(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(
        [
            "generate", "--task", "543a7ed5", "--count", "1", "--seed", "3",
            "--out", str(out), "--set", "colors=red,red,red",
        ]
    ) == 0
    assert "outside the verifier domain" in capsys.readouterr().err


def test_generate_rejects_bool_box_colors(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(
        [
            "generate", "--task", "543a7ed5", "--count", "1", "--seed", "3",
            "--out", str(out), "--set", "colors=true,true,true",
        ]
    ) == 1
    err = capsys.readouterr().err
    assert err == "error: colors[0] must be an integer, got True\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ("colors=pink", "colors must be a list of integers, got 6"),
        ("boxes=1,2", "boxes must be an integer, got [1, 2]"),
        ("size=true", "size must be an integer, got True"),
        # Only one trailing comma ends a list.
        ("colors=,", "cannot parse override value ''"),
        ("colors=6,,", "cannot parse override value ''"),
    ],
)
def test_generate_rejects_mistyped_layout_overrides(tmp_path, capsys, override, message):
    out = tmp_path / "d"
    assert run(
        [
            "generate", "--task", "543a7ed5", "--count", "1", "--seed", "3",
            "--out", str(out), "--set", override,
        ]
    ) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_generate_trailing_comma_makes_a_one_element_list(tmp_path, capsys):
    def generate(name, *overrides):
        out = tmp_path / name
        argv = ["generate", "--task", "543a7ed5", "--count", "3", "--seed", "3", "--out", str(out)]
        for override in overrides:
            argv += ["--set", override]
        assert run(argv) == 0
        return (out / "543a7ed5.json").read_bytes()

    # Pink is the boxes' only color in the verifier's domain.
    assert generate("pink", "boxes=1", "colors=pink,") == generate("plain", "boxes=1")
    assert capsys.readouterr().err == ""
    generate("red", "boxes=1", "colors=red,")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: task 543a7ed5: ")


@pytest.mark.parametrize(
    "task, overrides, message",
    [
        ("67a423a3", ["row=1,2"], "row must be an integer, got [1, 2]"),
        ("67a423a3", ["size=1,2"], "size must be an integer, got [1, 2]"),
        ("67a423a3", ["row=true"], "row must be an integer, got True"),
        ("67a423a3", ["row_color=true"], "row_color must be an integer, got True"),
        ("05269061", ["size=1,2"], "size must be an integer, got [1, 2]"),
        ("05269061", ["colors=3"], "colors must be a list of integers, got 3"),
        ("05269061", ["corner=true"], "corner must be an integer, got True"),
        ("05269061", ["colors=true,2,3"], "colors[0] must be an integer, got True"),
        ("1e0a9b12", ["size=1,2"], "size must be an integer, got [1, 2]"),
        (
            "543a7ed5",
            ["rows=2", "cols=2", "widths=2", "heights=2"],
            "rows must be a list of integers, got 2",
        ),
        (
            "543a7ed5",
            ["rows=true,8", "cols=2,2", "widths=2,2", "heights=2,2", "boxes=2"],
            "rows[0] must be an integer, got True",
        ),
        ("67a423a3", ["size=12", "row=0"], "row 0 outside [1, 10]"),
        ("05269061", ["corner=2"], "corner 2 outside [0, 1]"),
        ("05269061", ["bands=4"], "bands 4 outside [1, 3]"),
        ("1e0a9b12", ["size=11"], "size 11 outside [3, 10]"),
        ("543a7ed5", ["rows=2,3"], "rows, cols, widths and heights must be supplied together"),
        (
            "543a7ed5",
            ["cols=2,3", "widths=2,2", "heights=2,2"],
            "rows, cols, widths and heights must be supplied together",
        ),
        (
            "543a7ed5",
            ["boxes=1", "rows=2,3", "cols=2,3", "widths=0,1", "heights=4,1"],
            "widths[0] 0 outside [1, 30]",
        ),
        ("543a7ed5", ["boxes=0"], "boxes 0 outside [1, 900]"),
        ("543a7ed5", ["size=40"], "size 40 outside [1, 30]"),
        # 5,000 digits exceed Python's integer conversion limit.
        (
            "1e0a9b12",
            ["size=" + "9" * 5000],
            f"cannot parse override value {'9' * 20!r}... (5000 characters)",
        ),
        # Long user input is quoted by its start and length.
        ("a" * 5000, [], f"unknown task {'a' * 20!r}... (5000 characters)"),
        (
            "1e0a9b12",
            ["s" * 3000],
            f"override {'s' * 20!r}... (3000 characters) is not of the form key=value",
        ),
        (
            "1e0a9b12",
            ["s" * 3000 + "=1"],
            f"task 1e0a9b12: unknown parameters ['{'s' * 18}... (3004 characters)",
        ),
        (
            "1e0a9b12",
            ["size=" + ",".join(["1"] * 2000)],
            "size must be an integer, got [1, 1, 1, 1, 1, 1, 1... (6000 characters)",
        ),
    ],
)
def test_generate_rejects_mistyped_overrides(tmp_path, capsys, task, overrides, message):
    out = tmp_path / "d"
    argv = ["generate", "--task", task, "--count", "1", "--out", str(out)]
    for override in overrides:
        argv += ["--set", override]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_validate_reports_bundled_fixture(capsys):
    assert run(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "Testing task 543a7ed5 ... pass" in lines
    assert lines[-1] == "Examples pass for 1/1 tasks (100%)"


def test_validate_with_golden_dir(tmp_path, capsys, make_task_set):
    from gridbench import save_task_file

    save_task_file(tmp_path / "1e0a9b12.json", make_task_set("1e0a9b12", 2, 5))
    assert run(["validate", "--golden-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "Testing task 1e0a9b12 ... pass" in lines
    assert "Skipping task 543a7ed5 (no golden data)" in lines
    assert lines[-1] == "Examples pass for 1/1 tasks (100%)"


def test_validate_with_empty_golden_dir_judges_nothing(tmp_path, capsys):
    assert run(["validate", "--golden-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        *(f"Skipping task {task_id} (no golden data)" for task_id in task_ids()),
        "Examples pass for 0/0 tasks (0%)",
    ]


def test_validate_task_without_golden_data_judges_nothing(capsys):
    assert run(["validate", "--task", "1e0a9b12"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "Skipping task 1e0a9b12 (no golden data)",
        "Examples pass for 0/0 tasks (0%)",
    ]


@pytest.mark.parametrize("golden_dir", [False, True])
def test_validate_unknown_task_fails(tmp_path, capsys, golden_dir):
    argv = ["validate", "--task", "nope"] + (["--golden-dir", str(tmp_path)] if golden_dir else [])
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown task 'nope'\n"


def test_validate_malformed_golden_file_prints_only_the_error(tmp_path, capsys):
    (tmp_path / "543a7ed5.json").write_text("{oops", encoding="utf-8")
    assert run(["validate", "--golden-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / '543a7ed5.json'}: line 1: ")


def test_validate_fixtureless_verifier_that_raises_fails_its_task(tmp_path, capsys, monkeypatch):
    from gridbench import Example, Grid, TaskSet, framework, golden_check, save_task_file

    def verifier(grid):
        grid[1]  # IndexError on a one-row grid
        return grid

    monkeypatch.setattr(framework, "_REGISTRY", dict(framework._REGISTRY))
    fake = SimpleNamespace(TASK_ID="ffffffff", generate=lambda rng=None: None, verifier=verifier)
    framework.register(fake)
    save_task_file(
        tmp_path / "ffffffff.json",
        TaskSet(
            train=[Example(input=Grid([[1], [2]]), output=Grid([[1], [2]]))],
            test=[Example(input=Grid([[3]]), output=Grid([[3]]))],
        ),
    )
    assert golden_check("ffffffff", tmp_path) is False
    assert run(["validate", "--golden-dir", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "Testing task ffffffff ... FAIL" in lines
    assert lines[-1] == "Examples pass for 0/1 tasks (0%)"


@pytest.mark.parametrize("make", [None, "file"])
def test_validate_golden_dir_that_is_not_a_directory_fails(tmp_path, capsys, make):
    path = tmp_path / "typo"
    if make == "file":
        path.write_text("{}", encoding="utf-8")
    assert run(["validate", "--golden-dir", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not a directory\n"
    # A bad directory is reported before an unknown task id.
    assert run(["validate", "--task", "nope", "--golden-dir", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} is not a directory\n"


def test_evaluate_freshly_emitted_dataset(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(["generate", "--out", str(out), "--seed", "9"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--examples", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    n = len(task_ids())
    assert lines[-1] == f"Examples pass for {n}/{n} tasks (100%)"


def test_evaluate_corrupted_file_fails(tmp_path, capsys):
    out = tmp_path / "d"
    assert run(["generate", "--out", str(out), "--seed", "9"]) == 0
    path = out / "1e0a9b12.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["train"][0]["output"][0][0] = (payload["train"][0]["output"][0][0] + 1) % 10
    path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--examples", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "Testing task 1e0a9b12 ... FAIL" in lines
    n = len(task_ids())
    percent = format_percent(100 * (n - 1) / n)
    assert lines[-1] == f"Examples pass for {n - 1}/{n} tasks ({percent}%)"


def test_evaluate_deeply_nested_file_prints_one_error_line(tmp_path, capsys):
    path = tmp_path / "543a7ed5.json"
    path.write_text('{"train":' + "[" * 5000, encoding="utf-8")
    assert run(["evaluate", "--examples", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("make", [None, "file"])
def test_evaluate_path_that_is_not_a_directory_fails(tmp_path, capsys, make):
    path = tmp_path / "dataset"
    if make == "file":
        path.write_text("{}", encoding="utf-8")
    assert run(["evaluate", "--examples", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} is not a directory\n"


def test_evaluate_that_judges_no_task_fails(tmp_path, capsys):
    assert run(["evaluate", "--examples", str(tmp_path)]) == 1
    assert capsys.readouterr().out == "Examples pass for 0/0 tasks (0%)\n"
    (tmp_path / "unknown.json").write_text("{}", encoding="utf-8")
    assert run(["evaluate", "--examples", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "Skipping task unknown (no program)",
        "Examples pass for 0/0 tasks (0%)",
    ]


def test_evaluate_lists_tasks_in_task_id_order(tmp_path, capsys):
    assert run(["generate", "--task", "05269061", "--out", str(tmp_path), "--seed", "2"]) == 0
    (tmp_path / "00000000.json").write_text("{}", encoding="utf-8")
    capsys.readouterr()
    assert run(["evaluate", "--examples", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Skipping task 00000000 (no program)",
        "Testing task 05269061 ... pass",
        "Examples pass for 1/1 tasks (100%)",
    ]


def test_readme_evaluate_sample_matches_output(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("`evaluate` prints one line per task", 1)[1]
    sample = after.split("```\n", 2)[1]
    assert run(["generate", "--out", str(tmp_path), "--seed", "7"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--examples", str(tmp_path)]) == 0
    assert capsys.readouterr().out == sample


def test_render_generated_example(capsys):
    assert run(["render", "--task", "1e0a9b12", "--seed", "3", "--index", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("input:\n")
    assert "output:\n" in out
    body = [line for line in out.splitlines() if line and ":" not in line]
    assert all(line.isdigit() for line in body)


def test_render_from_file(tmp_path, capsys, monkeypatch, make_task_set):
    from gridbench import save_task_file

    path = tmp_path / "t.json"
    save_task_file(path, make_task_set("05269061", 2, 4))
    built = []
    example = gridbench.grid._example
    monkeypatch.setattr(gridbench.grid, "_example", lambda pair: built.append(pair) or example(pair))
    assert run(["render", "--file", str(path), "--split", "test", "--index", "0"]) == 0
    from_file = capsys.readouterr().out
    assert "output:" in from_file
    assert len(built) == 1  # only the printed example is built from the file's cells
    # The test example is example index 2 of that stream.
    assert run(["render", "--task", "05269061", "--seed", "4", "--index", "2"]) == 0
    assert capsys.readouterr().out == from_file


def test_render_index_out_of_range(tmp_path, capsys, make_task_set):
    from gridbench import save_task_file

    path = tmp_path / "t.json"
    save_task_file(path, make_task_set("05269061", 2, 4))
    assert run(["render", "--file", str(path), "--index", "5"]) == 1
    assert capsys.readouterr().err == f"error: {path}: train index 5 outside [0, 1]\n"
    assert run(["render", "--file", str(path), "--split", "test", "--index", "-1"]) == 1
    assert capsys.readouterr().err == f"error: {path}: test index -1 outside [0, 0]\n"


def test_render_rejects_an_index_past_64_bits(capsys):
    argv = ["render", "--task", "67a423a3", "--seed", "1", "--index", str(2**64 + 5)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: example_index 18446744073709551621 outside [0, 18446744073709551615]\n"


def test_render_needs_source(capsys):
    assert run(["render"]) == 2
    assert capsys.readouterr().err == "error: one of the arguments --task --file is required\n"


# argparse words its own messages differently across Python versions, so
# only gridbench's messages are pinned in full: among them the integer
# flags' type errors, behind argparse's "argument <flag>: " prefix. Every
# line stays under 300 bytes, however long the input it quotes.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], None),
        (["list", "--bogus"], None),
        (["generate", "--count", "abc"], "argument --count: invalid int value: 'abc'"),
        (["evaluate"], None),
        (["generate", "--set", "size=20"], "--set requires --task"),
        (["render"], None),
        (["render", "--task", "1e0a9b12", "--file", "t.json"], None),
        # Long user input is quoted by its start and length.
        (
            ["generate", "--count", "9" * 5000],
            f"argument --count: invalid int value: {'9' * 20!r}... (5000 characters)",
        ),
        (
            ["render", "--task", "1e0a9b12", "--index", "9" * 5000],
            f"argument --index: invalid int value: {'9' * 20!r}... (5000 characters)",
        ),
        # repr quotes a value holding ' in ", and one holding " in '.
        (
            ["generate", "--count", "9'" * 25],
            'argument --count: invalid int value: "' + "9'" * 10 + '"... (50 characters)',
        ),
        (
            ["render", "--task", "1e0a9b12", "--index", '9"' * 25],
            "argument --index: invalid int value: '" + '9"' * 10 + "'... (50 characters)",
        ),
        # The repr doubles each backslash; the shortened repr is not shortened again.
        (
            ["generate", "--count", "\\" * 50],
            "argument --count: invalid int value: " + repr("\\" * 20) + "... (100 characters)",
        ),
        (["b" * 3000], None),
        (["render", "--task", "1e0a9b12", "--split", "c" * 3000], None),
        (["list", "d" * 3000], None),
    ],
    ids=[
        "command", "flag", "count", "examples", "set", "render", "render-both", "long-count",
        "long-index", "long-count-quote", "long-index-double-quote", "long-count-backslash",
        "long-command", "long-split", "long-argument",
    ],
)
def test_usage_error_is_one_error_line_and_exit_2(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) < 300
    if message is not None:
        assert captured.err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--file", "a" * 5000],
        ["evaluate", "--examples", "a" * 5000],
        ["generate", "--task", "67a423a3", "--count", "1", "--out", "a" * 5000],
        ["evaluate", "--examples", f"{'d' * 200}/{'f' * 200}"],  # a file, not a directory
    ],
    ids=["render", "evaluate", "generate", "evaluate-file"],
)
def test_long_path_that_fails_is_one_short_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / ("d" * 200)).mkdir()
    (tmp_path / ("d" * 200) / ("f" * 200)).write_text("", encoding="utf-8")
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode()) < 200
    assert "characters)" in captured.err


def test_missing_file_error_names_the_whole_path(tmp_path, capsys):
    path = tmp_path / f"{'m' * 60}.json"
    assert run(["render", "--file", str(path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {str(path)!r}\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        run(["render", "-h"])
    assert info.value.code == 0
    assert "--task" in capsys.readouterr().out


def test_generate_output_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["generate", "--out", str(a), "--seed", "13"]) == 0
    assert run(["generate", "--out", str(b), "--seed", "13"]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_parser_carries_no_state_between_runs(tmp_path, capsys):
    # One process reuses one parser; a run must not see the one before.
    override = ["generate", "--task", "543a7ed5", "--count", "2", "--seed", "4"]
    assert run([*override, "--set", "size=20", "--out", str(tmp_path / "set")]) == 0
    assert run([*override, "--out", str(tmp_path / "after")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(gridbench.__file__).parents[1])}
    subprocess.run(
        [sys.executable, "-m", "gridbench.cli", *override, "--out", str(tmp_path / "fresh")],
        env=env, capture_output=True, check=True,
    )
    for name in ("543a7ed5.json", "manifest.json"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
    assert (tmp_path / "set" / "543a7ed5.json").read_bytes() != (
        tmp_path / "fresh" / "543a7ed5.json"
    ).read_bytes()
    capsys.readouterr()

    path = tmp_path / "after" / "543a7ed5.json"
    assert run(["render", "--file", str(path), "--split", "test"]) == 0
    from_file = capsys.readouterr().out
    assert run(["render", "--task", "543a7ed5", "--seed", "4", "--index", "2"]) == 0
    assert capsys.readouterr().out == from_file

    assert run(["render"]) == 2
    assert run(["list"]) == 0
    assert capsys.readouterr().out.split() == task_ids()


# Runs generate and prints its exit code and its peak RSS in KiB.
PEAK_RSS = """
import contextlib, io, resource, sys
from gridbench.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak // 1024 if sys.platform == "darwin" else peak)
"""


def test_generate_memory_does_not_grow_with_count(tmp_path):
    pytest.importorskip("resource", reason="ru_maxrss needs the POSIX resource module")
    env = {**os.environ, "PYTHONPATH": str(Path(gridbench.__file__).parents[1])}
    peaks = []
    for count in (1_000, 10_000):
        argv = ["generate", "--task", "67a423a3", "--seed", "1", "--count", str(count)]
        argv += ["--out", str(tmp_path / str(count))]
        result = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, *argv],
            env=env, capture_output=True, encoding="utf-8", check=True,
        )
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0
        peaks.append(peak_kib)
    # Holding every example until its file is written grew by about 35 MB here.
    assert peaks[1] - peaks[0] < 8 * 1024, peaks
