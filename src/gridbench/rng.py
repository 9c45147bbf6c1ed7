"""Deterministic, seedable random streams for example generation.

Every example draws from its own stream keyed by the triple
(master_seed, task_id, example_index), so a dataset is a pure function
of its seed no matter how generation is ordered or parallelized.

The engine is SplitMix64: a 64-bit counter stepped by a fixed odd
increment whose value is scrambled by two xor-multiply rounds. Bounded
draws map the 64-bit output onto [lo, hi] with a 128-bit multiply-shift,
which avoids rejection loops entirely (the bias is at most
span / 2**64, far below anything a statistical test at this scale can
see). Both pieces are small enough to reproduce bit-exactly in any
language with 64x64 -> 128 multiplication, for draws whose bounds and
span ``hi - lo + 1`` fit in 64 bits. Wider ranges, such as the pinned
``[0, 2**64 - 1]`` and ``[10**20, 10**20 + 7]`` vectors, need Python's
unbounded integers.

A stream's position is a counter: word k after state s is the scrambled
value of s + k * increment (mod 2**64), independent of the words before
it. ``peek_draws`` uses this to compute a block of words in bulk, with
the multiply-shift draw over one span that each word makes, and ``skip``
advances the stream by any number of words in constant time; both give
exactly the words that one ``_next`` call per word would.
"""

from __future__ import annotations

import sys
from functools import lru_cache

from .errors import check_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _scramble(z: int) -> int:
    # SplitMix64 output scrambler (two xor-multiply rounds, final xor-shift).
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=16)
def _lane_constants(n: int) -> tuple[int, int, int]:
    # One 128-bit lane per word, word k in bits [128k, 128k + 64):
    # ONES has a 1 in every lane, RAMP holds (k + 1) * increment in lane
    # k, LANES masks every lane to its low 64 bits.
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    lanes = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    ramp = int.from_bytes(
        b"".join(((k * _GOLDEN) & _MASK64).to_bytes(16, "little") for k in range(1, n + 1)),
        "little",
    )
    return ones, ramp, lanes


def _fnv1a(text: str) -> int:
    # 64-bit FNV-1a over the UTF-8 bytes; cheap and collision-resistant
    # at the scale of a few hundred task ids.
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class RngStream:
    """Single-owner random stream; use one per generated example.

    Not safe for concurrent draws. Distinct streams are independent and
    may be used in parallel freely.
    """

    __slots__ = ("state", "master_seed", "task_id", "example_index")

    def __init__(self, state: int, master_seed: int, task_id: str, example_index: int):
        self.state = state
        self.master_seed = master_seed
        self.task_id = task_id
        self.example_index = example_index

    def _next(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return _scramble(self.state)

    def peek_draws(self, n: int, span: int) -> tuple[list[int], list[int]]:
        """The next ``n`` words and their multiply-shift draws over ``span``,
        ``(word * span) >> 64``, without advancing the stream.

        All ``n`` words are computed at once in one integer holding a
        128-bit lane per word, word k in the low half of lane k; each lane
        is masked back to 64 bits before every multiply, so no product
        carries into the next lane. For spans up to 2**64 the product
        ``word * span`` fits its lane too, and its high half is the draw.
        """
        check_int("span", span, 1, 1 << 64)
        ones, ramp, lanes = _lane_constants(check_int("n", n, 0))
        z = (self.state * ones + ramp) & lanes
        z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
        z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
        z = (z ^ (z >> 31)) & lanes
        z |= z * span & ~lanes
        if sys.byteorder == "little":
            q = memoryview(z.to_bytes(16 * n, "little")).cast("Q")
            return q[::2].tolist(), q[1::2].tolist()
        q = memoryview(z.to_bytes(16 * n, "big")).cast("Q")
        return q[::-2].tolist(), q[-2::-2].tolist()

    def skip(self, n: int) -> None:
        """Advance the stream by ``n`` words, as ``n`` draws would."""
        self.state = (self.state + check_int("n", n, 0) * _GOLDEN) & _MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + ((self._next() * span) >> 64)

    def sample(self, population, k: int) -> list:
        """``k`` distinct entries of ``population``, by a partial Fisher-Yates
        shuffle of a copy: draw ``i`` is ``randint(i, n - 1)``, whose entry
        swaps into place ``i``, so exactly ``k`` words are taken."""
        pool = list(population)
        n = len(pool)
        for i in range(check_int("k", k, 0, n)):
            j = self.randint(i, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def __repr__(self) -> str:
        return (
            f"RngStream(master_seed={self.master_seed}, "
            f"task_id={self.task_id!r}, example_index={self.example_index})"
        )


def new_stream(master_seed: int, task_id: str, example_index: int) -> RngStream:
    """Stream whose output sequence is a pure function of the three keys."""
    check_int("master_seed", master_seed, 0, _MASK64)
    if not isinstance(task_id, str) or not task_id:
        raise ValueError("task_id must be a non-empty string")
    # Indexes are keyed as 64-bit words; a wider one would alias a smaller one.
    check_int("example_index", example_index, 0, _MASK64)
    state = _scramble(_keyed(master_seed, task_id) ^ example_index)
    return RngStream(state, master_seed, task_id, example_index)


@lru_cache(maxsize=256)
def _keyed(master_seed: int, task_id: str) -> int:
    # The state before the index is mixed in, so that a run hashes each task id once.
    return _scramble(_scramble((master_seed + _GOLDEN) & _MASK64) ^ _fnv1a(task_id))
