"""Helper processes that make the later blocks of an ``emit_dataset`` run.

``harness.emit_dataset`` makes the first block of each task itself and
imports this module only then, so importing the package loads none of it,
nor ``select`` or ``signal``.
"""

from __future__ import annotations

import os
import select
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
    return b"".join(_task_text(stream._pairs(start, start + _BLOCK), count, start))


class Blocks:
    """The later blocks of a run's tasks, in the run's order: task by task,
    and each task's blocks by index. ``heads`` holds ``(task_id, stream,
    chunks of the first block)`` for each task, in that order.

    They are made by helper processes forked from this one when that pays
    (``_helper_count``); otherwise each block is made here when it is asked
    for. One pipe holds a token, the 8-byte number of the run's next block.
    A helper reads it, appends its 2-byte share number to the claims pipe
    and writes the number + 1 back before it makes the block, so a free
    helper claims the next block and the claims name each block's maker in
    the run's order. It writes the block to its own pipe as a kind byte, an
    8-byte length and the bytes, running ahead of the caller only as far as
    that pipe holds. A helper whose block raises sends the kind ``e`` with
    no bytes and leaves, and that block is made here, so it raises exactly
    as in a run without helpers. A helper leaves by ``os._exit``, without
    running this process's exit handlers or flushing its buffers."""

    def __init__(self, heads: list, count: int, block_seconds: float) -> None:
        self._heads, self._count = heads, count
        self._blocks = len(heads) * (count // _BLOCK)
        self.unchecked: set[str] = set()  # tasks a helper wrote outside the verifier's domain
        # (pid, the pipe it writes blocks to) by share, and the claims' read
        # end; with no helper left the blocks are made here.
        self._helpers: dict[int, tuple[int, BinaryIO]] = {}
        self._claims = -1
        helpers = _helper_count(self._blocks, block_seconds)
        ends: list[int] = []  # the token's pipe, then the claims' write end
        try:
            if helpers:
                ends.extend(os.pipe())
                self._claims, claimed = os.pipe()
                ends.append(claimed)
                os.write(ends[1], bytes(8))  # block 0 is next
            for share in range(helpers):
                self._fork(share, ends)
        except OSError:  # no process or pipe to spare: make the blocks here
            self.close()
        finally:
            for end in ends:
                os.close(end)

    def _fork(self, share: int, ends: list[int]) -> None:
        blocks_in, blocks_out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(blocks_in)
            os.close(blocks_out)
            raise
        if pid == 0:
            self._serve(share, blocks_in, blocks_out, ends)
        os.close(blocks_out)
        self._helpers[share] = pid, os.fdopen(blocks_in, "rb")

    def _serve(self, share: int, blocks_in: int, blocks_out: int, ends: list[int]) -> NoReturn:
        status = 1
        token_in, token_out, claimed = ends
        try:
            # Holding no read end but the token's, it stops once the parent is gone.
            os.close(blocks_in)
            os.close(self._claims)
            for _, pipe in self._helpers.values():
                pipe.close()
            with os.fdopen(blocks_out, "wb") as out:
                while True:
                    block = int.from_bytes(os.read(token_in, 8), "little")
                    try:
                        os.write(claimed, share.to_bytes(2, "little"))  # never read past the end
                    finally:  # even once the parent is gone, so that no helper waits forever
                        os.write(token_out, (block + 1).to_bytes(8, "little"))
                    if block >= self._blocks:
                        break
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
        share = self._owner() if self._helpers else None
        if share is None:
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

    def _owner(self) -> int | None:
        """The share of the helper that claimed the next block, or None once
        no helper is left to claim it."""
        shares = {pipe.fileno(): share for share, (_, pipe) in self._helpers.items()}
        waiting = select.poll()
        for fd in (self._claims, *shares):
            waiting.register(fd, select.POLLIN)
        ready = dict(waiting.poll())
        if self._claims not in ready:  # a helper may have claimed a block since
            ready = dict(waiting.poll(0))
        if self._claims not in ready:
            # Every claimed block has been read, so this helper's pipe is at
            # its end: reading it reports the helper, which may have held the token.
            return shares[min(ready)]
        claim = os.read(self._claims, 2)
        return int.from_bytes(claim, "little") if claim else None

    def _end(self, share: int) -> int:
        """Close the pipe of the helper making ``share`` and reap it; returns
        its exit status."""
        pid, pipe = self._helpers.pop(share)
        pipe.close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def close(self) -> None:
        """Kill and reap every helper left and close the claims; calling it
        again does nothing."""
        for share, (pid, _) in list(self._helpers.items()):
            os.kill(pid, signal.SIGKILL)
            self._end(share)
        if self._claims >= 0:
            os.close(self._claims)
            self._claims = -1


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
