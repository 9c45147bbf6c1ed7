"""An ordered pool of helper processes forked from this one, which make
numbered blocks of bytes: ``Blocks(blocks, make, block_seconds)``.

It knows nothing of what a block holds. ``harness.emit_dataset`` decides
what block ``k`` of a run is and passes a ``make`` that makes it; the pool
only decides who makes each block, here or in a helper, and hands the
blocks back in order. It imports only the standard library, and
``emit_dataset`` imports it once a run is past its first blocks, so
importing the package loads none of it, nor ``select`` or ``signal``.
"""

from __future__ import annotations

import os
import select
import signal
from collections.abc import Callable
from typing import BinaryIO, NoReturn

# Seconds of work, estimated from the first blocks, per helper process. On a
# 2-vCPU x86-64 virtual machine (CPython 3.11) forking a helper, the
# copy-on-write faults it then takes and reaping it cost about 8 ms of CPU
# time, and two helpers gained nothing on runs of under about 40 ms.
_HELPER_S = 0.02


class HelperLost(Exception):
    """A helper process ended before it sent the block it claimed. Its one
    argument is the helper's exit status; a negative one names the signal
    that ended it."""


class Blocks:
    """Blocks ``0`` to ``blocks - 1``, handed out by ``get(k)`` in that order.

    ``make(k)`` returns block ``k``'s bytes and a mark, a flag that travels
    with them unchanged; ``get(k)`` returns the same pair, whoever made it.
    The blocks are made by helper processes forked from this one when that
    pays (``_helper_count``), given about ``block_seconds`` of work per
    block; otherwise each block is made here when it is asked for. One pipe
    holds a token, the 8-byte number of the next block. A helper reads it,
    appends its 2-byte share number to the claims pipe and writes the number
    + 1 back before it makes the block, so a free helper claims the next
    block and the claims name each block's maker in order. It writes the
    block to its own pipe as a kind byte (``c``, or ``u`` for a marked
    block), an 8-byte length and the bytes, running ahead of the caller only
    as far as that pipe holds. A helper whose ``make`` raises, ``SystemExit``
    included, sends the kind ``e`` with no bytes and leaves, and ``get``
    makes that block here, so it raises exactly as without helpers. A helper
    that ends before it sends its block makes ``get`` raise
    :class:`HelperLost`. A helper leaves by ``os._exit``, without running
    this process's exit handlers or flushing its buffers."""

    def __init__(
        self, blocks: int, make: Callable[[int], tuple[bytes, bool]], block_seconds: float
    ) -> None:
        self._blocks, self._make = blocks, make
        # (pid, the pipe it writes blocks to) by share, and the claims' read
        # end; with no helper left the blocks are made here.
        self._helpers: dict[int, tuple[int, BinaryIO]] = {}
        self._claims = -1
        helpers = _helper_count(blocks, block_seconds)
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
                    try:
                        text, marked = self._make(block)
                        kind = b"u" if marked else b"c"
                    except (Exception, SystemExit):  # made again by the caller, to raise there
                        kind, text = b"e", b""
                    out.write(kind + len(text).to_bytes(8, "little"))
                    out.write(text)
                    out.flush()
                    if kind == b"e":
                        break
            status = 0
        finally:
            os._exit(status)

    def get(self, k: int) -> tuple[bytes, bool]:
        """Block ``k``'s bytes and mark, as ``make(k)`` returns them; blocks are
        asked for in order, a block that failed raises what ``make`` raises
        here, and a helper that ended without sending it raises
        :class:`HelperLost`."""
        share = self._owner() if self._helpers else None
        if share is None:
            return self._make(k)
        pipe = self._helpers[share][1]
        head = pipe.read(9)
        size = int.from_bytes(head[1:], "little")
        text = pipe.read(size)
        if len(head) < 9 or len(text) < size:
            raise HelperLost(self._end(share))
        if head[:1] == b"e":  # make it here, to raise what it raised in the helper
            self._end(share)
            return self._make(k)
        return text, head[:1] == b"u"

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
