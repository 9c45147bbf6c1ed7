"""Command-line front end: generate, validate, evaluate, render, list."""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from .errors import GridBenchError, check_int, shown
from .framework import generate_examples, lookup, task_ids
from .grid import PALETTE, render_text
from .harness import (
    EvalReport,
    emit_dataset,
    evaluate,
    format_report,
    golden_check,
    load_task_file,
    save_task_file,  # noqa: F401  (bench/spans.py wraps cli.save_task_file)
)

# bench/spans.py patches this name and nothing calls it; ROADMAP item 1 deletes it.
apply_variation = None


def _parse_override(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override {shown(text)} is not of the form key=value")
    return key, _parse_value(raw)


def _parse_value(raw: str) -> object:
    if "," not in raw:
        return _parse_scalar(raw)
    # One trailing comma ends a list, so "pink," is the one-element list [6].
    parts = raw.split(",")
    if not parts[-1].strip():
        parts.pop()
    return [_parse_scalar(part) for part in parts]


def _parse_scalar(raw: str) -> object:
    token = raw.strip()
    if token in ("true", "false"):
        return token == "true"
    if token in PALETTE:
        return PALETTE[token]
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"cannot parse override value {shown(token)}") from None


def _cmd_generate(args) -> int:
    if args.set and args.task is None:
        raise argparse.ArgumentError(None, "--set requires --task")
    overrides = {}
    for key, value in map(_parse_override, args.set):
        if key in overrides:
            raise argparse.ArgumentError(None, f"--set {shown(key)} given more than once")
        overrides[key] = value
    ids = [args.task] if args.task else task_ids()
    out_dir = Path(args.out)
    for task_id in emit_dataset(ids, args.count, args.seed, out_dir, overrides):
        print(
            f"warning: task {task_id}: variation is outside the verifier "
            "domain; examples were not consistency-checked",
            file=sys.stderr,
        )
    for task_id in ids:
        print(f"wrote {out_dir / f'{task_id}.json'} ({args.count} train + 1 test)")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _print_report(report: EvalReport, skip_reason: str) -> int:
    """Print the report; exit 0 only if it judged a task and every task passed."""
    print(format_report(report, skip_reason))
    return 0 if 0 < report.tasks_passed == report.tasks_total else 1


def _cmd_validate(args) -> int:
    scores, skipped = {}, []
    for task_id in [args.task] if args.task else task_ids():
        # An empty --golden-dir selects the bundled golden data.
        result = golden_check(task_id, args.golden_dir or None)
        if result is None:
            skipped.append(task_id)
        else:
            scores[task_id] = (int(result), 1)
    return _print_report(EvalReport.from_scores(scores, skipped), "no golden data")


def _cmd_evaluate(args) -> int:
    programs = {task_id: lookup(task_id).verifier for task_id in task_ids()}
    return _print_report(evaluate(args.examples, programs), "no program")


def _cmd_render(args) -> int:
    if args.file is not None:
        if args.seed is not None:
            raise argparse.ArgumentError(None, "--seed requires --task")
        split = args.split or "train"
        task_set = load_task_file(args.file)
        pool = task_set.train if split == "train" else task_set.test
        example = pool[check_int(f"{args.file}: {split} index", args.index, 0, len(pool) - 1)]
    else:
        if args.split is not None:
            raise argparse.ArgumentError(None, "--split requires --file")
        index = check_int("example_index", args.index, 0, 2**64 - 1)
        stream = generate_examples(args.task, max(index, 1), args.seed or 0)
        example = next(stream.block(index, index + 1))
    print("input:")
    print(render_text(example.input), end="")
    print("output:")
    print(render_text(example.output), end="")
    return 0


def _cmd_list(args) -> int:
    for task_id in task_ids():
        print(task_id)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise a usage error for run() to print
        raise argparse.ArgumentError(None, message)


@functools.cache  # built on the first run, not at import; parse_args keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridbench",
        description="Generate, validate and evaluate ARC-style grid task datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit task files and a manifest")
    gen.add_argument("--task", help="generate only this task id")
    gen.add_argument("--count", type=int, default=3, help="train examples per task")
    gen.add_argument("--seed", type=int, default=0, help="master seed")
    gen.add_argument("--out", default="dataset", help="output directory")
    gen.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="parameter override (repeatable); requires --task",
    )
    gen.set_defaults(func=_cmd_generate)

    val = sub.add_parser("validate", help="check golden fixtures")
    val.add_argument("--task", help="validate only this task id")
    val.add_argument("--golden-dir", help="directory of external golden <task_id>.json files")
    val.set_defaults(func=_cmd_validate)

    ev = sub.add_parser("evaluate", help="run bundled verifiers over a dataset directory")
    ev.add_argument("--examples", required=True, help="directory of task files")
    ev.set_defaults(func=_cmd_evaluate)

    ren = sub.add_parser("render", help="print one example as digit rows")
    source = ren.add_mutually_exclusive_group(required=True)
    source.add_argument("--task", help="task id to generate from")
    source.add_argument("--file", help="task file to read instead of generating")
    ren.add_argument("--index", type=int, default=0, help="example index")
    ren.add_argument("--split", choices=("train", "test"), help="split (with --file; default train)")
    ren.add_argument("--seed", type=int, help="master seed (with --task; default 0)")
    ren.set_defaults(func=_cmd_render)

    lst = sub.add_parser("list", help="print registered task ids")
    lst.set_defaults(func=_cmd_list)
    return parser


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as err:
        # argparse repeats a bad value in full, quoted by repr or not; shown shortens a long one.
        message = re.sub(
            r"""'([^']{41,})'|"([^"]{41,})"|(\S{41,})""", lambda m: shown(m[m.lastindex]), str(err)
        )
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (GridBenchError, ValueError, OSError) as err:
        if isinstance(err, OSError) and err.filename is not None:  # str(err) quotes any length
            names = [name for name in (err.filename, err.filename2) if name is not None]
            names = (repr(name) if len(str(name)) <= 255 else shown(name) for name in names)
            err = f"[Errno {err.errno}] {err.strerror}: {' -> '.join(names)}"
        print(f"error: {err}", file=sys.stderr)
        return 1
    except KeyError as err:
        message = err.args[0] if err.args else str(err)
        print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
