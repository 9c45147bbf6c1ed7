"""Known-answer vectors that pin generated values across versions.

Determinism between two runs of one build says nothing about whether a
later version still produces the datasets people cite by seed. This
module compares the current code against values recorded in
``known_answers.json``: raw SplitMix64 outputs and bounded draws for a
few key triples, SHA-256 digests of emitted task files, and the stream
state a failed 543a7ed5 layout search leaves behind.

A change that alters any of these values changes published datasets. It
must say so, name the task and explain why; only then re-record with::

    PYTHONPATH=src python tests/test_known_answers.py

which also re-records the CLI transcripts of ``test_transcripts.py``.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gridbench import (
    GenerationError,
    emit_dataset,
    lookup,
    new_stream,
    task_ids,
)
from gridbench.cli import run

FIXTURE = Path(__file__).with_name("known_answers.json")

# (master_seed, task_id, example_index): the extremes of the seed range,
# a non-ASCII id (FNV-1a runs over UTF-8 bytes) and a large index.
TRIPLES = [
    (0, "543a7ed5", 0),
    (2**64 - 1, "1e0a9b12", 7),
    (7, "grille-été-✓", 3),
    (123456789, "05269061", 2**63 + 12345),
]

# Bounded draws taken in this order from one fresh stream per triple.
RANGES = [(0, 9), (1, 6), (-5, 5), (0, 2**32), (0, 2**64 - 1), (10**20, 10**20 + 7)]

RAW_DRAWS = 8
DATASET_SEEDS = (7, 2024)
DATASET_TRAIN = 50
VARIATION = {"task": "543a7ed5", "overrides": {"size": 8, "boxes": 1}, "count": 20, "seed": 5}
# Further 543a7ed5 layouts with the same task, count and seed: one box on
# a large grid (few draws per example), many boxes (long searches), and
# a grid small enough that many attempts draw a box that cannot fit.
LAYOUT_OVERRIDES = [{"size": 30, "boxes": 1}, {"size": 30, "boxes": 6}, {"size": 6, "boxes": 1}]
# Infeasible (size, boxes) pairs: every attempt fails, so the search
# ends in GenerationError after consuming a fixed number of draws.
INFEASIBLE = [(3, 1), (5, 2)]
INFEASIBLE_SEED = 5
INFEASIBLE_INDEXES = range(3)
# gridbench generate command lines, each run with --seed 5: every task at
# the smallest and largest size it accepts, the emit-large-grids command
# lines of bench/workloads.py, and 543a7ed5 boxes in a color outside the
# verifier's domain, which are written unchecked.
COMMAND_LINES = [
    *(
        ["--task", task, "--set", f"size={size}", "--count", "20"]
        for task, sizes in (("05269061", (3, 30)), ("67a423a3", (3, 30)), ("1e0a9b12", (3, 10)))
        for size in sizes
    ),
    ["--task", "67a423a3", "--set", "size=30", "--count", "100"],
    ["--task", "05269061", "--set", "size=30", "--count", "100"],
    ["--task", "1e0a9b12", "--set", "size=10", "--count", "201"],
    ["--task", "543a7ed5", "--set", "size=30", "--set", "boxes=1", "--count", "100"],
    ["--task", "543a7ed5", "--set", "colors=2,2,2", "--count", "20"],
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rng_vectors() -> list[dict]:
    vectors = []
    for master_seed, task_id, example_index in TRIPLES:
        stream = new_stream(master_seed, task_id, example_index)
        state0 = stream.state
        raw = [stream._next() for _ in range(RAW_DRAWS)]
        stream = new_stream(master_seed, task_id, example_index)
        bounded = [[lo, hi, stream.randint(lo, hi)] for lo, hi in RANGES]
        # Integers are strings, 64-bit words hex, so that readers limited
        # to 53-bit JSON numbers can check them too.
        vectors.append(
            {
                "master_seed": str(master_seed),
                "task_id": task_id,
                "example_index": str(example_index),
                "state0": f"{state0:016x}",
                "next": [f"{word:016x}" for word in raw],
                "randint": [[str(v) for v in draw] for draw in bounded],
            }
        )
    return vectors


def dataset_digests(seed: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        emit_dataset(task_ids(), DATASET_TRAIN, seed, tmp)
        return {path.name: _sha256(path) for path in sorted(Path(tmp).iterdir())}


def variation_digest(overrides: dict) -> dict:
    task = VARIATION["task"]
    with tempfile.TemporaryDirectory() as tmp:
        unchecked = emit_dataset([task], VARIATION["count"], VARIATION["seed"], tmp, overrides)
        return {"sha256": _sha256(Path(tmp) / f"{task}.json"), "verifier_checked": task not in unchecked}


def cli_digest(overrides: dict) -> str:
    """The SHA-256 of the task file ``gridbench generate --set`` writes with
    the variation's task, count and seed."""
    sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    task, count, seed = VARIATION["task"], str(VARIATION["count"]), str(VARIATION["seed"])
    with tempfile.TemporaryDirectory() as tmp:
        assert run(["generate", "--task", task, *sets, "--count", count, "--seed", seed, "--out", tmp]) == 0
        return _sha256(Path(tmp) / f"{task}.json")


def command_line_digests() -> list[dict]:
    """The SHA-256 of the task file each of ``COMMAND_LINES`` writes, and
    whether the run checked it against the verifier (it warns when not)."""
    digests = []
    for argv in COMMAND_LINES:
        task = argv[argv.index("--task") + 1]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                assert run(["generate", *argv, "--seed", "5", "--out", tmp]) == 0
            digest = _sha256(Path(tmp) / f"{task}.json")
        digests.append({"argv": argv, "sha256": digest, "verifier_checked": "warning:" not in err.getvalue()})
    return digests


def layout_digests() -> list[dict]:
    return [{"overrides": o, **variation_digest(o)} for o in LAYOUT_OVERRIDES]


def failed_search_states() -> list[dict]:
    generate = lookup("543a7ed5").generate
    states = []
    for size, boxes in INFEASIBLE:
        for index in INFEASIBLE_INDEXES:
            rng = new_stream(INFEASIBLE_SEED, "543a7ed5", index)
            with pytest.raises(GenerationError):
                generate(rng=rng, size=size, boxes=boxes)
            states.append({"size": size, "boxes": boxes, "index": index, "state": f"{rng.state:016x}"})
    return states


def record() -> dict:
    return {
        "rng": rng_vectors(),
        "datasets": {str(seed): dataset_digests(seed) for seed in DATASET_SEEDS},
        "variation": {**VARIATION, **variation_digest(VARIATION["overrides"])},
        "layouts": layout_digests(),
        "command_lines": command_line_digests(),
        "failed_searches": failed_search_states(),
    }


@pytest.fixture(scope="module")
def known():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_splitmix64_vectors(known):
    assert rng_vectors() == known["rng"]


@pytest.mark.parametrize("seed", DATASET_SEEDS)
def test_emit_dataset_digests(known, seed):
    assert dataset_digests(seed) == known["datasets"][str(seed)]


def test_variation_digest(known):
    assert {**VARIATION, **variation_digest(VARIATION["overrides"])} == known["variation"]


def test_layout_digests(known):
    assert layout_digests() == known["layouts"]


def test_cli_set_digests(known):
    # generate --set parses the overrides into the bytes that emit_dataset writes.
    expected = [known["variation"]["sha256"], *(entry["sha256"] for entry in known["layouts"])]
    assert [cli_digest(o) for o in [VARIATION["overrides"], *LAYOUT_OVERRIDES]] == expected


def test_command_line_digests(known):
    assert command_line_digests() == known["command_lines"]


def test_failed_search_states(known):
    assert failed_search_states() == known["failed_searches"]


if __name__ == "__main__":
    from test_transcripts import record as record_transcripts  # the module beside this one

    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    record_transcripts()
