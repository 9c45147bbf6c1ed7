#!/usr/bin/env python3
"""Benchmark of gridbench: dataset generation, evaluation and per-index regeneration.

Run from the repository root, standard library only, one process and
one thread:

    python3 bench/run.py --workload emit-default --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all       # every workload, one after another
    python3 bench/run.py --help               # workloads and metrics

The package is imported from ``src/`` next to this directory, never from
anywhere else. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. Either run also writes a JSON record
to ``--results`` (the traced one with every span).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUPS = 3  # set-ups per run; setup_s is their median
# A traced run stops tracing new batches once this many spans are held,
# which bounds its memory and the size of its -trace.json to tens of MB.
MAX_SPANS = 100_000


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fresh_import(baseline: set[str]):
    """Import ``gridbench`` and ``gridbench.cli`` anew; returns (gb, cli, seconds).

    Every module imported since ``baseline`` was taken is dropped first,
    so each set-up pays for the package and for whatever it imports that
    this benchmark does not.
    """
    for name in [m for m in sys.modules if m not in baseline]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    gb = importlib.import_module("gridbench")
    cli = importlib.import_module("gridbench.cli")
    seconds = time.perf_counter() - start
    if Path(gb.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gridbench was imported from {gb.__file__}, not from {SRC}")
    return gb, cli, seconds


def environment(workload: str, seed: int, trace: bool) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        nproc = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc,
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(values, n=100)`` gives it."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(samples: workloads.Samples, scale) -> dict[str, tuple[float, int]]:
    """End-to-end metrics as name -> (value, sample count).

    ``scale(first, last=None)`` gives the factor applied to a time taken
    in windows ``first``..``last``: ``samples.scale`` or ``unscaled``.
    """

    def rate(units):
        seconds = sum(s * scale(w) for _, s, w in units)
        return (sum(n for n, _, _ in units) / seconds if seconds else 0.0), len(units)

    example_ms = [s * scale(w) * 1e3 for s, w in samples.example]
    return {
        "gen_examples_per_s": rate(samples.generate),
        "eval_examples_per_s": rate(samples.evaluate),
        "example_ms_p50": (quantile(example_ms, 50), len(example_ms)),
        "example_ms_p99": (quantile(example_ms, 99), len(example_ms)),
        "setup_s": (statistics.median(s * scale(w0, w1) for s, w0, w1 in samples.setup), len(samples.setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def unscaled(first, last=None) -> float:
    return 1.0


def timed_batch(workload, session: workloads.Session, k: int) -> float:
    """Seconds of one batch, scaled by the probes taken around and inside it."""
    first = session.window
    start = time.perf_counter()
    workload.batch(session, k)
    seconds = time.perf_counter() - start
    return seconds * session.samples.scale(first, max(first, session.window - 1))


def run_workload(name: str, seed: int, seconds: float, trace: bool, results: Path) -> dict:
    """Run one workload in this process and return its result record."""
    workload = workloads.WORKLOADS[name]
    baseline = set(sys.modules)
    work_dir = BENCH_DIR / ".work" / f"{name}-{os.getpid()}"
    session = workloads.Session(work_dir, seed)
    tracer = spans.Tracer() if trace else None
    timed = {"untraced": 0.0, "traced": 0.0}
    try:
        session.probe()
        for i in range(SETUPS):
            window = session.window
            start = time.perf_counter()
            session.gb, session.cli, import_s = fresh_import(baseline)
            # A traced run traces its last set-up, so a dataset built there is seen.
            with traced(session, tracer, i == SETUPS - 1):
                workload.prepare(session)
            session.samples.setup.append((time.perf_counter() - start, window, session.window))
            session.samples.import_s.append(import_s)
            session.probe()

        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            untraced_s = timed_batch(workload, session, k)
            if tracer and len(tracer.spans) < MAX_SPANS:
                # The same batch again, traced; its outputs must not change.
                with traced(session, tracer, True):
                    timed["traced"] += timed_batch(workload, session, k)
                timed["untraced"] += untraced_s
            k += 1
            if time.perf_counter() >= deadline:
                break
        workload.finish(session)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    ledger = session.ledger
    env = environment(name, seed, trace)
    record = {
        "correct": ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "failed_frac": ledger.failed_frac,
        "problems": ledger.problems,
        "batches": k,
        "env": env,
    }
    spec = load_spec()
    if trace:
        values = spans.summarize(tracer.spans, session.gb.task_ids())
        values["init.import_ms"] = statistics.median(session.samples.import_s) * 1e3
        # Times are scaled like the end-to-end ones, by the run's median probe.
        factor = workloads.REFERENCE_PROBE_S / statistics.median(session.samples.probes)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {m: v * factor if units[m] in ("us", "ms") else v for m, v in values.items()}
        values["trace.overhead_ratio"] = timed["traced"] / timed["untraced"]
        declared = spec["per_layer"]
    else:
        e2e = end_to_end(session.samples, session.samples.scale)
        values = {m: v for m, (v, _) in e2e.items()}
        record["samples"] = {m: n for m, (_, n) in e2e.items()}
        record["unscaled"] = {m: v for m, (v, _) in end_to_end(session.samples, unscaled).items()}
        record["speed"] = {
            "reference_probe_s": workloads.REFERENCE_PROBE_S,
            "probe_s_median": statistics.median(session.samples.probes),
            "probe_s_min": min(session.samples.probes),
        }
        declared = spec["end_to_end"]
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if not trace:
        record["digests"] = {" ".join(key): d for key, d in session.digests.items()}

    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{name}-seed{seed}"
    if trace:
        tracer.dump(f"{stem}-trace.json", record["metrics"], {**env, "timed_s": timed})
    with open(f"{stem}-{'layers' if trace else 'e2e'}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


@contextlib.contextmanager
def traced(session: workloads.Session, tracer: spans.Tracer | None, active: bool):
    """Install ``tracer`` on the session's package while inside, if any and active."""
    if not (tracer and active):
        yield
        return
    tracer.install(session.gb, session.cli)
    session.tracer = tracer
    try:
        yield
    finally:
        session.tracer = None
        tracer.uninstall()


def report_lines(name: str, record: dict) -> list[str]:
    samples = record.get("samples", {})
    lines = [f"{name}: {record['attempted']} operations, {record['failed']} failed, failed_frac {record['failed_frac']:.6g}"]
    for metric, entry in record["metrics"].items():
        n = f"  (n={samples[metric]})" if metric in samples else ""
        lines.append(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}{n}")
    lines += [f"  problem: {p}" for p in record["problems"]]
    return lines


def final_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(args) -> int:
    """Each workload in a child process of its own, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--results", str(args.results)]
        child = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stderr, file=sys.stderr, end="")
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def help_text() -> str:
    spec = load_spec()
    lines = ["workloads:"]
    lines += [f"  {w['name']:18s} {w['why']}" for w in spec["workloads"]]
    lines.append("\nend-to-end metrics (--trace 0), untraced:")
    lines += [
        f"  {m['name']:24s} {m['unit']:6s} {m['better']} is better; regression bound {m['bound']:.0%}"
        for m in spec["end_to_end"]
    ]
    lines.append("\nper-layer metrics (--trace 1), from a traced run, and what they should move:")
    for m in spec["per_layer"]:
        moves = spans.LAYER_MOVES.get(m["name"]) or spans.LAYER_MOVES[m["name"].rsplit(".", 1)[0] + ".<task>"]
        lines.append(f"  {m['name']:40s} {m['unit']:6s} {moves}")
    lines.append(
        "\nfailed_frac (failed over attempted operations) is the JSON's failed/attempted."
    )
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Benchmark gridbench generation, evaluation and regeneration by index.",
        epilog=help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs derive from it)")
    parser.add_argument("--seconds", type=float, default=30, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--results", type=Path, default=BENCH_DIR / "results",
                        help="directory for the JSON records (default: bench/results)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.results)
    except ImportError as err:
        print(f"error: cannot import gridbench from {SRC}: {err}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(args.workload, record)))
    print(final_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
