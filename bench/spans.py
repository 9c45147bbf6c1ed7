"""In-memory span tracing of gridbench and the per-layer summary of a traced run.

The package carries no tracing code. While a :class:`Tracer` is
installed it replaces, at run time, the public callables the package
looks up when it runs: the module attributes ``new_stream``,
``generate_task_set``, ``apply_variation``, ``emit_dataset``,
``evaluate``, ``save_task_file``, ``load_task_file`` and the ``json``
module seen by ``gridbench.harness``; the ``generate`` and ``verifier``
of every registered task; and ``Grid.__init__`` and ``Grid.copy``.
``uninstall`` puts every original back.

A span is a list ``[name, start_ns, end_ns, parent, key, count]``:
``parent`` is the index of the enclosing span (-1 for none), ``key`` the
example key ``seed/task/index`` (inherited from the parent when the span
has none of its own) and ``count`` a work count whose meaning depends on
the span: cells for ``grid.*``, examples for files and task sets, draws
for ``tasks.generate.*``, characters (ASCII, so bytes) for
``harness.json_encode``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import SimpleNamespace

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # the SplitMix64 increment used by gridbench.rng
GAMMA_INV = pow(GAMMA, -1, 1 << 64)

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "key", "count")

# Per-layer metric -> the end-to-end metric and workload it should move.
LAYER_MOVES = {
    "rng.new_stream_us": "gen_examples_per_s, example_ms_p99 on emit-default; flat elsewhere",
    "rng.draws_per_example.<task>": "gen_examples_per_s, example_ms_p99 on emit-default; flat elsewhere",
    "tasks.generate_us.<task>": "gen_examples_per_s (543a7ed5 on emit-default, others on emit-large-grids)",
    "tasks.verify_us.<task>": "gen_examples_per_s on emit-*, eval_examples_per_s on judge-readheavy",
    "grid.construct_us_per_kcell": "eval_examples_per_s on judge-readheavy, gen_examples_per_s on emit-large-grids",
    "grid.copy_us_per_kcell": "eval_examples_per_s on judge-readheavy, gen_examples_per_s on emit-large-grids",
    "framework.self_us_per_example": "every emit-* metric, slightly",
    "harness.save_us_per_example": "gen_examples_per_s on emit-large-grids",
    "harness.bytes_per_example": "gen_examples_per_s on emit-large-grids",
    "harness.load_us_per_example": "eval_examples_per_s on judge-readheavy",
    "harness.json_decode_us_per_example": "eval_examples_per_s on judge-readheavy",
    "harness.evaluate_self_us_per_example": "eval_examples_per_s",
    "cli.self_ms": "gen_examples_per_s, eval_examples_per_s",
    "init.import_ms": "setup_s",
    "trace.overhead_ratio": "none: traced over untraced time of the same batches",
}


def draws_between(state0: int, state: int) -> int:
    """SplitMix64 steps taken from ``state0`` to ``state``.

    The stream state is a Weyl sequence, ``state_k = state_0 + k*GAMMA``
    mod 2**64, so ``k = (state - state_0) * GAMMA**-1`` mod 2**64.
    """
    return ((state - state0) * GAMMA_INV) & MASK64


class Tracer:
    """Records spans around gridbench's public calls while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current_key: str | None = None
        # Master seed of each dataset directory, for the keys of judge spans.
        self.dataset_seeds: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._judged: list | None = None  # [seed, task, next index] inside evaluate

    # -- spans ---------------------------------------------------------

    def open(self, name: str, key: str | None = None) -> list:
        parent = self._stack[-1] if self._stack else -1
        if key is None and parent >= 0:
            key = self.spans[parent][4]
        span = [name, time.perf_counter_ns(), 0, parent, key, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, count: int | None = None) -> None:
        span[2] = time.perf_counter_ns()
        span[5] = count
        self._stack.pop()

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installing wrappers -------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        # object.__setattr__ also reaches the frozen TaskGenerator dataclass.
        if isinstance(owner, type):
            setattr(owner, attr, value)
        else:
            object.__setattr__(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)

    def install(self, gb, cli) -> None:
        """Wrap the callables of the imported ``gridbench`` and its ``cli``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        framework, harness = gb.framework, gb.harness
        traced_stream = self._wrap_new_stream(framework.new_stream)
        self._patch(framework, "new_stream", traced_stream)
        self._patch(gb, "new_stream", traced_stream)
        for task_id in gb.task_ids():
            gen = gb.lookup(task_id)
            self._patch(gen, "generate", self._wrap_generate(task_id, gen.generate))
            self._patch(gen, "verifier", self._wrap_verifier(task_id, gen.verifier))
        self._patch(
            harness,
            "generate_task_set",
            self._wrap_counted(
                "framework.generate_task_set",
                harness.generate_task_set,
                lambda result: len(result.train) + len(result.test),
            ),
        )
        self._patch(
            cli,
            "apply_variation",
            self._wrap_counted(
                "framework.apply_variation",
                cli.apply_variation,
                lambda result: len(result.task_set.train) + len(result.task_set.test),
            ),
        )
        self._patch(cli, "emit_dataset", self._wrap_counted("harness.emit_dataset", cli.emit_dataset))
        self._patch(cli, "evaluate", self._wrap_evaluate(cli.evaluate))
        traced_save = self._wrap_save(harness.save_task_file)
        self._patch(harness, "save_task_file", traced_save)
        self._patch(cli, "save_task_file", traced_save)
        self._patch(harness, "load_task_file", self._wrap_load(harness.load_task_file))
        self._patch(harness, "json", self._json_proxy(harness.json))
        self._patch(gb.Grid, "__init__", self._wrap_grid_init(gb.Grid.__init__))
        self._patch(gb.Grid, "copy", self._wrap_grid_copy(gb.Grid.copy))

    def _wrap_new_stream(self, original):
        def new_stream(master_seed, task_id, example_index):
            key = f"{master_seed}/{task_id}/{example_index}"
            self.current_key = key
            span = self.open("rng.new_stream", key)
            try:
                return original(master_seed, task_id, example_index)
            finally:
                self.close(span)

        return new_stream

    def _wrap_generate(self, task_id, original):
        name = f"tasks.generate.{task_id}"

        def generate(*args, rng, **kwargs):
            state0 = rng.state
            span = self.open(name, f"{rng.master_seed}/{rng.task_id}/{rng.example_index}")
            try:
                return original(*args, rng=rng, **kwargs)
            finally:
                self.close(span)
                span[5] = draws_between(state0, rng.state)

        return generate

    def _wrap_verifier(self, task_id, original):
        name = f"tasks.verify.{task_id}"

        def verifier(grid):
            span = self.open(name, self.current_key)
            try:
                return original(grid)
            finally:
                self.close(span)

        return verifier

    def _wrap_counted(self, name, original, count_of=None):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(span, count_of(result) if count_of and result is not None else None)

        return wrapper

    def _wrap_evaluate(self, original):
        def evaluate(example_dir, programs):
            span = self.open("harness.evaluate")
            report = None
            try:
                report = original(example_dir, programs)
                return report
            finally:
                judged = None
                if report is not None:
                    judged = sum(score.total_count for score in report.per_task.values())
                self.close(span, judged)
                self._judged = None

        return evaluate

    def _wrap_save(self, original):
        def save_task_file(path, task_set):
            span = self.open("harness.save_task_file")
            try:
                return original(path, task_set)
            finally:
                self.close(span, len(task_set.train) + len(task_set.test))

        return save_task_file

    def _wrap_load(self, original):
        def load_task_file(path):
            if self._parent_name() == "harness.evaluate":
                seed = self.dataset_seeds.get(str(path.parent))
                self._judged = [seed, path.stem, 0]
            span = self.open("harness.load_task_file")
            task_set = None
            try:
                task_set = original(path)
                return task_set
            finally:
                count = None if task_set is None else len(task_set.train) + len(task_set.test)
                self.close(span, count)

        return load_task_file

    def _json_proxy(self, json_module):
        def loads(text, *args, **kwargs):
            span = self.open("harness.json_decode")
            try:
                return json_module.loads(text, *args, **kwargs)
            finally:
                self.close(span)

        def dumps(obj, *args, **kwargs):
            span = self.open("harness.json_encode")
            text = ""
            try:
                text = json_module.dumps(obj, *args, **kwargs)
                return text
            finally:
                self.close(span, len(text))

        return SimpleNamespace(
            loads=loads, dumps=dumps, JSONDecodeError=json_module.JSONDecodeError
        )

    def _wrap_grid_init(self, original):
        def __init__(grid, rows):
            span = self.open("grid.construct")
            cells = 0
            try:
                original(grid, rows)
                cells = grid.height * grid.width
            finally:
                self.close(span, cells)

        return __init__

    def _wrap_grid_copy(self, original):
        def copy(grid):
            key = None
            if self._judged is not None and self._parent_name() == "harness.evaluate":
                # evaluate copies each input just before judging it.
                seed, task, index = self._judged
                key = self.current_key = f"{seed}/{task}/{index}"
                self._judged[2] += 1
            span = self.open("grid.copy", key)
            try:
                return original(grid)
            finally:
                self.close(span, grid.height * grid.width)

        return copy

    # -- output --------------------------------------------------------

    def dump(self, path, summary: dict, env: dict) -> None:
        """Write the spans and the per-layer summary as one JSON file."""
        payload = {"env": env, "per_layer": summary, "span_fields": SPAN_FIELDS, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def summarize(spans: list[list], task_ids) -> dict[str, float]:
    """Per-layer metrics of a traced run (times in µs unless named ``_ms``).

    A span's self time is its duration minus the durations of its
    children; spans of one thread never overlap, so the children's sum
    is the part of the interval they cover.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    # (name, parent name) -> [spans, total ns, self ns, count sum]
    acc: dict[tuple, list] = defaultdict(lambda: [0, 0, 0, 0])
    for i, (name, start, end, parent, _key, count) in enumerate(spans):
        row = acc[(name, spans[parent][0] if parent >= 0 else None)]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
        row[3] += count or 0

    def total(name, parent=Ellipsis):
        rows = [v for (n, p), v in acc.items() if n == name and (parent is Ellipsis or p == parent)]
        return [sum(column) for column in zip(*rows)] if rows else [0, 0, 0, 0]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    n, ns, _, _ = total("rng.new_stream")
    metrics["rng.new_stream_us"] = ratio(ns, n) / 1e3
    for task_id in task_ids:
        n, ns, _, draws = total(f"tasks.generate.{task_id}")
        metrics[f"rng.draws_per_example.{task_id}"] = ratio(draws, n)
        metrics[f"tasks.generate_us.{task_id}"] = ratio(ns, n) / 1e3
        n, ns, _, _ = total(f"tasks.verify.{task_id}")
        metrics[f"tasks.verify_us.{task_id}"] = ratio(ns, n) / 1e3
    # ns per cell is µs per thousand cells.
    _, ns, _, cells = total("grid.construct", "harness.load_task_file")
    metrics["grid.construct_us_per_kcell"] = ratio(ns, cells)
    _, ns, _, cells = total("grid.copy", "harness.evaluate")
    metrics["grid.copy_us_per_kcell"] = ratio(ns, cells)
    own = [a + b for a, b in zip(total("framework.generate_task_set"), total("framework.apply_variation"))]
    metrics["framework.self_us_per_example"] = ratio(own[2], own[3]) / 1e3
    _, ns, _, saved = total("harness.save_task_file")
    metrics["harness.save_us_per_example"] = ratio(ns, saved) / 1e3
    metrics["harness.bytes_per_example"] = ratio(
        total("harness.json_encode", "harness.save_task_file")[3], saved
    )
    _, ns, _, loaded = total("harness.load_task_file")
    metrics["harness.load_us_per_example"] = ratio(ns, loaded) / 1e3
    metrics["harness.json_decode_us_per_example"] = (
        ratio(total("harness.json_decode", "harness.load_task_file")[1], loaded) / 1e3
    )
    _, _, own_ns, judged = total("harness.evaluate")
    metrics["harness.evaluate_self_us_per_example"] = ratio(own_ns, judged) / 1e3
    n, _, own_ns, _ = total("cli.run")
    metrics["cli.self_ms"] = ratio(own_ns, n) / 1e6
    return metrics
