"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Variation  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    """Every workload with a handful of examples, so a run takes a moment."""
    small = {
        "emit-default": workloads.EmitWorkload("emit-default", (Variation(None, 3),)),
        "emit-large-grids": workloads.EmitWorkload(
            "emit-large-grids",
            tuple(replace(v, count=2) for v in workloads.WORKLOADS["emit-large-grids"].variations),
        ),
        "judge-readheavy": workloads.JudgeWorkload(
            "judge-readheavy", Variation(None, 3), parts=2, spot_checks=2
        ),
    }
    monkeypatch.setattr(workloads, "WORKLOADS", small)


@pytest.fixture
def session(tmp_path):
    s = workloads.Session(tmp_path / "work", seed=5)
    s.gb, s.cli, _ = run.fresh_import(set(sys.modules))
    return s


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["emit-default", "emit-large-grids", "judge-readheavy"])
def test_smoke_run_prints_every_metric_with_its_unit(tiny, tmp_path, capsys, name, trace):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--results", str(tmp_path)]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float) and entry["value"] > 0, metric["name"]
        assert any(line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
                   for line in lines[:-1])


def test_traced_run_writes_nested_spans_and_environment(tiny, tmp_path):
    run.main(["--workload", "judge-readheavy", "--seed", "4", "--seconds", "0", "--trace", "1",
              "--results", str(tmp_path)])
    payload = json.loads((tmp_path / "judge-readheavy-seed4-trace.json").read_text())
    assert payload["env"]["seed"] == 4 and payload["env"]["python"]
    assert {"cpu_count", "nproc", "commit"} <= set(payload["env"])
    assert set(payload["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    rows = payload["spans"]
    names = {row[0] for row in rows}
    assert {"cli.run", "harness.emit_dataset", "harness.evaluate", "harness.load_task_file",
            "grid.copy", "rng.new_stream", "bench.example"} <= names
    for name, start, end, parent, key, _ in rows:
        assert start <= end
        if parent >= 0:
            assert rows[parent][1] <= start and end <= rows[parent][2]
        if name.startswith(("tasks.", "rng.")):
            assert key is not None and key.count("/") == 2


def test_tracer_uninstall_restores_the_package(session):
    gb = session.gb
    originals = (gb.framework.new_stream, gb.Grid.__init__, gb.harness.json,
                 gb.lookup("543a7ed5").generate)
    tracer = spans.Tracer()
    tracer.install(gb, session.cli)
    assert gb.framework.new_stream is not originals[0]
    tracer.uninstall()
    assert (gb.framework.new_stream, gb.Grid.__init__, gb.harness.json,
            gb.lookup("543a7ed5").generate) == originals


@pytest.mark.parametrize("steps", [0, 1, 7, 1000])
def test_draw_count_matches_a_stream_stepped_known_times(session, steps):
    rng = session.gb.new_stream(2**64 - 1, "543a7ed5", 12)
    state0 = rng.state
    for _ in range(steps):
        rng.randint(0, 9)
    assert spans.draws_between(state0, rng.state) == steps


def test_failed_frac_counts_a_judge_that_raises(session):
    out_dir = session.work / "d"
    assert session.generate(Variation(None, 2), 9, out_dir) is not None
    assert session.ledger.failed == 0
    gen = session.gb.lookup("1e0a9b12")
    verifier = gen.verifier

    def broken(grid):
        raise RuntimeError("judge crashed")

    object.__setattr__(gen, "verifier", broken)
    try:
        assert session.evaluate(out_dir) is None
    finally:
        object.__setattr__(gen, "verifier", verifier)
    # 4 tasks x 3 examples generated, 12 judged; the 3 of 1e0a9b12 failed.
    assert (session.ledger.attempted, session.ledger.failed) == (24, 3)
    assert session.ledger.failed_frac == 3 / 24
    assert "Examples pass for 3/4 tasks (75%)" in session.ledger.problems[0]


def test_failed_frac_counts_a_run_that_exits_nonzero(session):
    bad = Variation("67a423a3", 2, (("size", 99),))
    assert session.generate(bad, 1, session.work / "bad") is None
    assert (session.ledger.attempted, session.ledger.failed) == (3, 3)
    assert session.ledger.problems[0].startswith("exit 1:")
    assert session.ledger.failed_frac == 1.0


def test_changed_digest_and_mismatched_regeneration_count_as_failed(session):
    variation = Variation("05269061", 2)
    out_dir = session.work / "d"
    session.generate(variation, 1, out_dir)
    session.generate(variation, 1, session.work / "again")
    assert session.ledger.failed == 0
    (key,) = session.digests
    session.digests[key]["05269061"] = "0" * 64
    assert session.generate(variation, 1, out_dir) is None
    assert session.ledger.failed == 3
    stored = workloads.stored_examples(out_dir / "05269061.json")
    session.regenerate("05269061", {}, 1, 0, stored[0])
    session.regenerate("05269061", {}, 1, 0, stored[1])
    assert session.ledger.failed == 4 and len(session.samples.example) == 1
