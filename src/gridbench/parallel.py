"""Helper processes that make the later blocks of an ``emit_dataset`` run.

``harness.emit_dataset`` makes the first block of each task itself and
imports this module only then, so importing the package loads none of it,
nor ``signal``.
"""

from __future__ import annotations

import os
import signal
from typing import BinaryIO, NoReturn

from .errors import GenerationError
from .framework import generate_examples
from .harness import _BLOCK, _task_text

# Seconds of work, estimated from the first blocks, per helper process. On a
# 2-vCPU x86-64 virtual machine (CPython 3.11) forking a helper, the
# copy-on-write faults it then takes and reaping it cost about 8 ms of CPU
# time, and two helpers gained nothing on runs of under about 40 ms.
_HELPER_S = 0.02


def _block_text(stream: generate_examples, start: int, count: int) -> bytes:
    """The bytes of the block of ``stream``'s task file from index ``start``."""
    return b"".join(_task_text(stream.block(start, start + _BLOCK), count, start))


class Blocks:
    """The later blocks of a run's tasks, in the run's order: task by task,
    and each task's blocks by index. ``heads`` holds ``(task_id, stream,
    chunks of the first block)`` for each task, in that order.

    They are made by helper processes forked from this one when that pays
    (``_helper_count``); otherwise each block is made here when it is asked
    for. With n helpers, helper i makes blocks i, i + n, i + 2n, ... of the
    run in turn and writes each to its one pipe as a kind byte, an 8-byte
    length and the block's bytes; it runs ahead of the caller only as far as
    the pipe holds. A helper whose block raises sends the kind ``e`` with no
    bytes and leaves, and that block and the rest of its share are made here,
    so the block raises here exactly as in a run without helpers. A helper
    leaves by ``os._exit``, without running this process's exit handlers or
    flushing its buffers."""

    def __init__(self, heads: list, count: int, block_seconds: float) -> None:
        self._heads, self._count = heads, count
        self._blocks = len(heads) * (count // _BLOCK)
        self._taken = 0
        self.unchecked: set[str] = set()  # tasks a helper wrote outside the verifier's domain
        helpers = _helper_count(self._blocks, block_seconds)
        self._shares = max(helpers, 1)
        # (pid, the pipe it writes blocks to) by share; a share that is not
        # here is made in this process.
        self._helpers: dict[int, tuple[int, BinaryIO]] = {}
        try:
            for share in range(helpers):
                self._fork(share)
        except OSError:  # no process or pipe to spare: make the blocks here
            self.close()

    def _fork(self, share: int) -> None:
        blocks_in, blocks_out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(blocks_in)
            os.close(blocks_out)
            raise
        if pid == 0:
            self._serve(share, blocks_in, blocks_out)
        os.close(blocks_out)
        self._helpers[share] = pid, os.fdopen(blocks_in, "rb")

    def _serve(self, share: int, blocks_in: int, blocks_out: int) -> NoReturn:
        status = 1
        try:
            # A helper holds no end of a pipe but its own write end, so it
            # stops writing once the parent is gone.
            os.close(blocks_in)
            for _, pipe in self._helpers.values():
                pipe.close()
            with os.fdopen(blocks_out, "wb") as out:
                for block in range(share, self._blocks, self._shares):
                    (_, stream, _), start = self._locate(block)
                    try:
                        text = _block_text(stream, start, self._count)
                        kind = b"c" if stream.domain_error is None else b"u"
                    except Exception:
                        kind, text = b"e", b""
                    out.write(kind + len(text).to_bytes(8, "little"))
                    out.write(text)
                    out.flush()
                    if kind == b"e":
                        break
            status = 0
        finally:
            os._exit(status)

    def _locate(self, block: int) -> tuple[tuple, int]:
        """The head of the task that block ``block`` of the run belongs to, and
        the block's first index."""
        per_task = self._count // _BLOCK
        return self._heads[block // per_task], (block % per_task + 1) * _BLOCK

    def text(self, task_id: str, stream: generate_examples, start: int) -> bytes:
        """The bytes of the block of ``task_id`` from index ``start``; blocks are
        asked for in the run's order, and a block that failed raises its error."""
        block = self._taken
        self._taken += 1
        share = block % self._shares
        if share not in self._helpers:
            return _block_text(stream, start, self._count)
        pipe = self._helpers[share][1]
        head = pipe.read(9)
        size = int.from_bytes(head[1:], "little")
        text = pipe.read(size)
        if len(head) < 9 or len(text) < size:
            status = self._end(share)
            stop = min(start + _BLOCK, self._count + 1) - 1
            raise GenerationError(
                f"task {task_id}: the helper process making examples {start} to {stop} "
                f"ended with status {status}"
            )
        if head[:1] == b"e":  # make it here, to raise what it raised in the helper
            self._end(share)
            return _block_text(stream, start, self._count)
        if head[:1] == b"u":
            self.unchecked.add(task_id)
        return text

    def _end(self, share: int) -> int:
        """Close the pipe of the helper making ``share`` and reap it; returns
        its exit status."""
        pid, pipe = self._helpers.pop(share)
        pipe.close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def close(self) -> None:
        """Kill and reap every helper left; calling it again does nothing."""
        for share, (pid, _) in list(self._helpers.items()):
            os.kill(pid, signal.SIGKILL)
            self._end(share)


def _helper_count(blocks: int, block_seconds: float) -> int:
    """Helper processes worth forking for ``blocks`` blocks of about
    ``block_seconds`` each: one per usable CPU, at most one per block and one
    per ``_HELPER_S`` of work, and none unless that makes two or more. There
    are none where the CPU set or the thread list cannot be read, or while
    this process runs another thread, whose locks a fork would copy in
    whatever state they are in."""
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 0
    helpers = min(cpus, blocks, int(blocks * block_seconds / _HELPER_S))
    return helpers if helpers > 1 and threads == 1 else 0
