"""Helper processes that make the later blocks of an ``emit_dataset`` run.

``harness.emit_dataset`` makes the first block of each task itself and
imports this module only then, so importing the package loads none of it,
nor ``gc``, ``select`` or ``signal``; ``pickle`` is loaded only when a
helper's block fails.
"""

from __future__ import annotations

import gc
import os
import select
import signal
from dataclasses import dataclass
from typing import NoReturn

from .errors import GenerationError
from .framework import generate_examples
from .harness import _BLOCK, _task_text

# Seconds of work, estimated from the first blocks, per helper process. On a
# 2-vCPU x86-64 virtual machine (CPython 3.11) forking a helper, the
# copy-on-write faults it then takes and reaping it cost about 8 ms of CPU
# time, and two helpers gained nothing on runs of under about 40 ms.
_HELPER_S = 0.02
# Blocks per helper that may be handed out past the block written next.
_AHEAD = 4


def _block_text(stream: generate_examples, start: int, count: int) -> bytes:
    """The bytes of the block of ``stream``'s task file from index ``start``."""
    return b"".join(_task_text(stream.block(start, start + _BLOCK), count, start))


class Blocks:
    """The later blocks of a run's tasks, in the run's order: task by task,
    and each task's blocks by index. ``heads`` holds ``(task_id, stream,
    chunks of the first block)`` for each task, in that order.

    They are made by helper processes forked from this one when that pays
    (``_helper_count``); otherwise each block is made here when it is asked
    for. The parent hands a helper block numbers through one pipe, and the
    helper sends each block back through another as a kind byte, an 8-byte
    length and the block's bytes, or the pickled exception that stopped it,
    after which it sends nothing more. Blocks are handed out in run order,
    each to a helper that holds fewer than two, so one that draws slow
    examples is handed fewer, and none more than ``_AHEAD`` per helper past
    the block written next, which bounds the blocks that arrive before their
    turn and wait here. A helper leaves by ``os._exit``, without running
    this process's exit handlers or flushing its buffers."""

    def __init__(self, heads: list, count: int, block_seconds: float) -> None:
        self._heads, self._count = heads, count
        self._blocks = len(heads) * (count // _BLOCK)
        self._helpers: dict[int, _Helper] = {}  # by the descriptor it sends blocks through
        # Blocks sent back before their turn: the bytes and whether a domain
        # error was seen, or the error to raise in their place.
        self._arrived: dict[int, tuple[bytes, bool] | Exception] = {}
        self._handed = self._taken = 0
        self.unchecked: set[str] = set()  # tasks a helper wrote outside the verifier's domain
        helpers = _helper_count(self._blocks, block_seconds)
        self._ahead = _AHEAD * helpers  # 0 while no helper runs
        if not helpers:
            return
        # Objects made before the fork stay out of the helpers' collections,
        # so the pages that hold them stay shared.
        gc.freeze()
        try:
            for _ in range(helpers):
                self._fork()
        except OSError:  # no process or pipe to spare: make the blocks here
            self.close()
            self._ahead = 0
        finally:
            gc.unfreeze()

    def _fork(self) -> None:
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        numbers_in, numbers_out, blocks_in, blocks_out = fds
        if pid == 0:
            self._serve(numbers_in, blocks_out, (numbers_out, blocks_in))
        os.close(numbers_in)
        os.close(blocks_out)
        self._helpers[blocks_in] = _Helper(pid, numbers_out, [])

    def _serve(self, numbers_in: int, blocks_out: int, parent_ends: tuple[int, int]) -> NoReturn:
        status = 1
        try:
            # A helper holds no end of a pipe but its own two, so it stops
            # reading or writing once the parent is gone.
            for fd in parent_ends:
                os.close(fd)
            for fd, helper in self._helpers.items():
                os.close(fd)
                os.close(helper.numbers)
            with os.fdopen(blocks_out, "wb") as out:
                while number := _read(numbers_in, 8):
                    (_, stream, _), start = self._locate(int.from_bytes(number, "little"))
                    try:
                        text = _block_text(stream, start, self._count)
                        kind = b"c" if stream.domain_error is None else b"u"
                    except Exception as err:
                        import pickle

                        kind, text = b"e", pickle.dumps(err)
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
        if not self._ahead:
            return _block_text(stream, start, self._count)
        block = self._taken
        self._taken += 1
        while True:
            self._hand_out()
            if block in self._arrived:
                break
            self._receive()
        result = self._arrived.pop(block)
        if isinstance(result, Exception):
            raise result
        text, unchecked = result
        if unchecked:
            self.unchecked.add(task_id)
        return text

    def _hand_out(self) -> None:
        """Hand the next blocks in run order to helpers that hold fewer than two."""
        while self._handed < min(self._blocks, self._taken + self._ahead):
            helper = min(self._helpers.values(), key=lambda helper: len(helper.held), default=None)
            if helper is None or len(helper.held) >= 2:
                return
            helper.held.append(self._handed)
            try:
                os.write(helper.numbers, self._handed.to_bytes(8, "little"))
            except BrokenPipeError:  # it has ended; _receive reads how
                pass
            self._handed += 1

    def _receive(self) -> None:
        """Wait for the helpers that hold blocks, and keep each block or error
        that one sends, or the end of one that stopped without sending."""
        poll = select.poll()
        for fd, helper in self._helpers.items():
            if helper.held:
                poll.register(fd, select.POLLIN)
        for fd, _ in poll.poll():
            helper = self._helpers[fd]
            block = helper.held.pop(0)
            head = _read(fd, 9)
            size = int.from_bytes(head[1:], "little")
            text = _read(fd, size)
            if len(head) < 9 or len(text) < size:
                del self._helpers[fd]
                os.close(fd)
                os.close(helper.numbers)
                status = os.waitstatus_to_exitcode(os.waitpid(helper.pid, 0)[1])
                (task_id, _, _), start = self._locate(block)
                stop = min(start + _BLOCK, self._count + 1) - 1
                self._arrived[block] = GenerationError(
                    f"task {task_id}: the helper process making examples {start} to {stop} "
                    f"ended with status {status}"
                )
            elif head[:1] == b"e":
                import pickle

                self._arrived[block] = pickle.loads(text)
            else:
                self._arrived[block] = text, head[:1] == b"u"

    def close(self) -> None:
        """Kill and reap every helper left; calling it again does nothing."""
        while self._helpers:
            fd, helper = self._helpers.popitem()
            os.close(fd)
            os.close(helper.numbers)
            os.kill(helper.pid, signal.SIGKILL)
            os.waitpid(helper.pid, 0)


@dataclass
class _Helper:
    pid: int
    numbers: int  # the descriptor that hands it block numbers
    held: list[int]  # the blocks handed to it and not yet sent back, in order


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes from ``fd``, or fewer at its end."""
    data = b""
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


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
