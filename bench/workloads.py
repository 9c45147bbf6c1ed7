"""Workloads of the gridbench benchmark and the checks made on their outputs.

Every workload is a closed batch run by one thread: each call into the
package starts when the previous one has returned. The package sees only
generated inputs: master seeds derived from the workload seed, and the
command lines built from them.

Checks, each of which counts the operations it covers as failed:

* every ``cli.run`` exits 0 and prints no ``warning:`` on stderr;
* ``evaluate`` ends with ``Examples pass for N/N tasks (100%)``, where N
  is the number of task files; on a miss the library ``evaluate`` is run
  again to count the failing examples;
* the SHA-256 of every task file written for one command line (seed
  included) is the same each time that command line runs in a process;
* regenerating an example by index passes its verifier and reproduces,
  value for value, the example stored in the task file.

Speed scaling. On a shared machine the same code runs up to twice as
slow while neighbours are busy, in phases lasting from seconds to
whole runs. The session therefore runs a fixed pure-Python probe
(``reference_work``) between units of timed work; a unit's time is
scaled by ``REFERENCE_PROBE_S`` over the mean of the two probes around
it, i.e. to the machine speed at which the probe takes
``REFERENCE_PROBE_S``. The probe never calls gridbench, so a faster
gridbench cannot move it. Unscaled values are kept in the results file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

MASK64 = (1 << 64) - 1
COMPACT = (",", ":")
PROBE_EVERY_S = 0.03  # longest stretch of per-index regeneration between probes
# About the probe's time on an idle 2-vCPU x86-64 virtual machine, CPython 3.11.
REFERENCE_PROBE_S = 200e-6


def master_seed(seed: int, batch: int) -> int:
    """Master seed of batch ``batch`` of a run with workload seed ``seed``."""
    return (seed * 1000 + batch) & MASK64


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def mix(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


def reference_work() -> int:
    """Fixed work in gridbench's style (objects, method calls, dicts, lists,
    sorting, JSON) that senses how fast the machine runs right now."""
    objs = [_Probe(i, i + 1) for i in range(300)]
    counts: dict[int, int] = {}
    total = 0
    for obj in objs:
        value = obj.mix(7)
        counts[value % 97] = counts.get(value % 97, 0) + 1
        total += value
    ordered = sorted(objs, key=lambda obj: -obj.a)
    text = json.dumps([[obj.a % 10 for obj in objs[i : i + 30]] for i in range(0, 300, 30)])
    return total + len(ordered) + len(json.loads(text)) + len(counts)


@dataclass
class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Samples:
    """Raw measurements of one run; the end-to-end metrics are taken from these.

    ``setup`` holds (seconds, first window, last window) per set-up, ``generate`` and
    ``evaluate`` (examples, seconds, window) per timed unit, ``example``
    (seconds, window) per regenerated example and ``probes`` the probe
    times that bound the windows: window ``w`` lies between
    ``probes[w - 1]`` and ``probes[w]``.
    """

    setup: list = field(default_factory=list)
    import_s: list = field(default_factory=list)
    generate: list = field(default_factory=list)
    evaluate: list = field(default_factory=list)
    example: list = field(default_factory=list)
    probes: list = field(default_factory=list)

    def scale(self, first: int, last: int | None = None) -> float:
        """Factor that brings a time measured in windows ``first``..``last``
        (just ``first`` by default) to the reference speed."""
        around = self.probes[first - 1 : (first if last is None else last) + 1]
        return REFERENCE_PROBE_S * len(around) / sum(around)


@dataclass(frozen=True)
class Variation:
    """One ``generate`` command: a task (None: every task) at fixed parameters."""

    task: str | None
    count: int
    overrides: tuple = ()

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = ["generate", "--count", str(self.count), "--seed", str(seed)]
        if self.task is not None:
            argv += ["--task", self.task]
        for key, value in self.overrides:
            argv += ["--set", f"{key}={value}"]
        return argv + ["--out", str(out_dir)]

    def tasks(self, gb) -> list[str]:
        return [self.task] if self.task is not None else gb.task_ids()

    def examples(self, gb) -> int:
        return len(self.tasks(gb)) * (self.count + 1)


class Session:
    """One benchmark process: the imported package, its checks and samples."""

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.work = Path(work_dir)
        self.seed = seed
        self.gb = None
        self.cli = None
        self.tracer = None  # set while a Tracer is installed
        self.ledger = Ledger()
        self.samples = Samples()
        self.digests: dict[tuple, dict[str, str]] = {}
        self.datasets: list[tuple] = []  # (seed, directory, jobs) written in set-up
        self._last_probe = 0.0

    # -- speed probes --------------------------------------------------

    @property
    def window(self) -> int:
        return len(self.samples.probes)

    def probe(self) -> None:
        """Close the current window with a probe: the median of three runs."""
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            reference_work()
            runs.append(time.perf_counter() - start)
        self.samples.probes.append(statistics.median(runs))
        self._last_probe = time.perf_counter()

    def tick(self) -> None:
        """Probe if the current window has lasted ``PROBE_EVERY_S``."""
        if time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
            self.probe()

    # -- checked calls into gridbench ------------------------------------

    def run_cli(self, argv: list[str]) -> tuple[int, str, str, float]:
        """``cli.run(argv)`` with captured output: (exit code, stdout, stderr, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            span = tracer.open("cli.run") if tracer else None
            try:
                code = self.cli.run(argv)
            finally:
                if span:
                    tracer.close(span)
            seconds = time.perf_counter() - start
        return code, out.getvalue(), err.getvalue(), seconds

    def generate(self, variation: Variation, seed: int, out_dir: Path) -> float | None:
        """Run one ``generate`` command and check it; its seconds, None if it failed."""
        argv = variation.argv(seed, out_dir)
        expected = variation.examples(self.gb)
        code, _, err, seconds = self.run_cli(argv)
        self.ledger.attempted += expected
        if code != 0:
            self.ledger.fail(expected, f"exit {code}: {' '.join(argv)}: {err.strip()}")
            return None
        if "warning:" in err:
            self.ledger.fail(expected, f"{' '.join(argv)}: {err.strip()}")
            return None
        if self.tracer:
            self.tracer.dataset_seeds[str(Path(out_dir))] = seed
        key = tuple(argv[:-2])  # the command line without --out
        digests = {t: _sha256(Path(out_dir) / f"{t}.json") for t in variation.tasks(self.gb)}
        first = self.digests.setdefault(key, digests)
        changed = [t for t in digests if digests[t] != first[t]]
        if changed:
            self.ledger.fail(expected, f"digest of {changed} changed for {' '.join(key)}")
            return None
        return seconds

    def evaluate(self, out_dir: Path) -> tuple[int, float] | None:
        """Run ``evaluate`` on a dataset; (examples, seconds), None if it failed."""
        files = [p for p in Path(out_dir).glob("*.json") if p.name != "manifest.json"]
        manifest = json.loads((Path(out_dir) / "manifest.json").read_text(encoding="utf-8"))
        expected = sum(t["train_count"] + t["test_count"] for t in manifest["tasks"])
        argv = ["evaluate", "--examples", str(out_dir)]
        code, out, err, seconds = self.run_cli(argv)
        self.ledger.attempted += expected
        lines = out.splitlines()
        if code == 0 and lines and lines[-1] == f"Examples pass for {len(files)}/{len(files)} tasks (100%)":
            return expected, seconds
        failed = self._failed_examples(out_dir, expected)
        self.ledger.fail(failed, f"exit {code}: {' '.join(argv)}: {(err or out).strip()[-300:]}")
        return None

    def _failed_examples(self, out_dir: Path, expected: int) -> int:
        # Diagnostic only: the CLI reports tasks, the library counts examples.
        programs = {t: self.gb.lookup(t).verifier for t in self.gb.task_ids()}
        try:
            report = self.gb.evaluate(out_dir, programs)
        except Exception:  # the dataset itself is unreadable: all of it failed
            return expected
        failed = sum(s.total_count - s.pass_count for s in report.per_task.values())
        return failed or expected

    def regenerate(self, task_id: str, overrides: dict, seed: int, index: int, stored: str) -> None:
        """Regenerate one example by index, verify it and compare it with ``stored``.

        ``stored`` is the example's compact JSON as read from its task
        file. Only new_stream, generate and the verifier check are timed.
        """
        gb, tracer = self.gb, self.tracer
        gen = gb.lookup(task_id)
        self.ledger.attempted += 1
        span = tracer.open("bench.example", f"{seed}/{task_id}/{index}") if tracer else None
        try:
            start = time.perf_counter()
            example = gen.generate(rng=gb.new_stream(seed, task_id, index), **overrides)
            verified = gen.verifier(example.input) == example.output
            seconds = time.perf_counter() - start
        except Exception as err:  # a generation error is a failed operation
            self.ledger.fail(1, f"{seed}/{task_id}/{index}: {type(err).__name__}: {err}")
            return
        finally:
            if span:
                tracer.close(span)
        if not verified:
            self.ledger.fail(1, f"{seed}/{task_id}/{index}: verifier mismatch")
        elif _example_json(example.input.to_lists(), example.output.to_lists()) != stored:
            self.ledger.fail(1, f"{seed}/{task_id}/{index}: differs from its task file")
        else:
            self.samples.example.append((seconds, self.window))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _example_json(rows_in, rows_out) -> str:
    return json.dumps({"input": rows_in, "output": rows_out}, separators=COMPACT)


def stored_examples(path: Path) -> list[str]:
    """Compact JSON of each example of a task file, in index order (train, then test)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [_example_json(ex["input"], ex["output"]) for ex in (*payload["train"], *payload["test"])]


def regenerate_rows(session: Session, seed: int, jobs: list[tuple], indexes) -> None:
    """Regenerate ``indexes`` of every (task, overrides, stored examples) job.

    Index by index, round-robin over the jobs as a reader would, probing
    only between whole rows so every window holds the same task mix.
    """
    for index in indexes:
        for task_id, overrides, stored in jobs:
            if index < len(stored):
                session.regenerate(task_id, overrides, seed, index, stored[index])
        session.tick()


class EmitWorkload:
    """Each batch generates datasets through the CLI, evaluates them and
    regenerates every example of them by index."""

    def __init__(self, name: str, variations: tuple[Variation, ...]) -> None:
        self.name = name
        self.variations = variations

    def prepare(self, session: Session) -> None:
        session.work.mkdir(parents=True, exist_ok=True)

    def batch(self, session: Session, k: int) -> None:
        seed = master_seed(session.seed, k)
        batch_dir = session.work / f"batch{k}"
        dirs = [batch_dir / f"v{j}" for j in range(len(self.variations))]
        if self._generate_all(session, seed, dirs):
            # One unit over all the batch's evaluate commands, as for generate.
            window = session.window
            evaluated = [session.evaluate(out_dir) for out_dir in dirs]
            session.probe()
            if None not in evaluated:
                examples, seconds = map(sum, zip(*evaluated))
                session.samples.evaluate.append((examples, seconds, window))
            jobs = [
                (task_id, dict(v.overrides), stored_examples(out_dir / f"{task_id}.json"))
                for v, out_dir in zip(self.variations, dirs)
                for task_id in v.tasks(session.gb)
            ]
            regenerate_rows(session, seed, jobs, range(max(v.count + 1 for v in self.variations)))
            session.probe()
        shutil.rmtree(batch_dir, ignore_errors=True)

    def _generate_all(self, session: Session, seed: int, dirs: list[Path]) -> bool:
        # One timed unit over all the batch's generate commands, so every
        # throughput sample has the same task mix.
        window = session.window
        seconds = [session.generate(v, seed, d) for v, d in zip(self.variations, dirs)]
        session.probe()
        if None in seconds:
            return False
        examples = sum(v.examples(session.gb) for v in self.variations)
        session.samples.generate.append((examples, sum(seconds), window))
        return True

    def finish(self, session: Session) -> None:
        """Regenerate batch 0's datasets; their digests must not change."""
        repeat_dir = session.work / "repeat"
        dirs = [repeat_dir / f"v{j}" for j in range(len(self.variations))]
        self._generate_all(session, master_seed(session.seed, 0), dirs)
        shutil.rmtree(repeat_dir, ignore_errors=True)


class JudgeWorkload:
    """Each set-up writes ``parts`` datasets, each from a seed of its own;
    each batch evaluates ``parts`` of them through the CLI and spot-checks
    a slice of one by regenerating examples by index."""

    def __init__(self, name: str, variation: Variation, parts: int, spot_checks: int) -> None:
        self.name = name
        self.variation = variation
        self.parts = parts
        self.spot_checks = spot_checks

    def prepare(self, session: Session) -> None:
        # Several short generate commands, so speed probes fall between them.
        for _ in range(self.parts):
            seed = master_seed(session.seed, len(session.datasets))
            out_dir = session.work / f"dataset{len(session.datasets)}"
            window = session.window
            seconds = session.generate(self.variation, seed, out_dir)
            session.probe()
            if seconds is None:
                continue
            session.samples.generate.append((self.variation.examples(session.gb), seconds, window))
            overrides = dict(self.variation.overrides)
            jobs = [
                (t, overrides, stored_examples(out_dir / f"{t}.json"))
                for t in self.variation.tasks(session.gb)
            ]
            session.datasets.append((seed, out_dir, jobs))

    def batch(self, session: Session, k: int) -> None:
        datasets = session.datasets
        if not datasets:  # every set-up failed; the failures are counted
            return
        for j in range(self.parts):
            _, out_dir, _ = datasets[(k * self.parts + j) % len(datasets)]
            window = session.window
            evaluated = session.evaluate(out_dir)
            session.probe()
            if evaluated is not None:
                session.samples.evaluate.append((*evaluated, window))
        seed, _, jobs = datasets[k % len(datasets)]
        start = k // len(datasets) * self.spot_checks
        indexes = [(start + j) % (self.variation.count + 1) for j in range(self.spot_checks)]
        regenerate_rows(session, seed, jobs, indexes)
        session.probe()

    def finish(self, session: Session) -> None:
        pass


WORKLOADS = {
    w.name: w
    for w in (
        # 543a7ed5 layout sampling is about 90% of this path.
        EmitWorkload("emit-default", (Variation(None, 100),)),
        # Few draws per example; time goes to painting, Grid, verify and JSON.
        # 543a7ed5 with one box keeps its sampler cheap at the largest size.
        # Per-example latency rises in the order 1e0a9b12, 67a423a3, then
        # 543a7ed5 and 05269061; twice as many 1e0a9b12 examples put the
        # median inside the 67a423a3 cluster rather than in the gap
        # between two clusters, where it would jump from run to run.
        EmitWorkload(
            "emit-large-grids",
            (
                Variation("67a423a3", 100, (("size", 30),)),
                Variation("05269061", 100, (("size", 30),)),
                Variation("1e0a9b12", 201, (("size", 10),)),
                Variation("543a7ed5", 100, (("size", 30), ("boxes", 1))),
            ),
        ),
        # Read side: load, Grid validation, judge calls; generation only in set-up.
        JudgeWorkload("judge-readheavy", Variation(None, 125), parts=8, spot_checks=45),
    )
}
