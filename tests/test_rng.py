"""Random stream determinism and distribution checks."""

import json
from pathlib import Path

import pytest

from gridbench import new_stream
from gridbench.rng import _GOLDEN, _MASK64, _fnv1a, _keyed, _scramble


def draws(stream, n):
    return [stream.randint(0, 2**32) for _ in range(n)]


def test_same_triple_same_sequence():
    a = new_stream(7, "543a7ed5", 0)
    b = new_stream(7, "543a7ed5", 0)
    assert draws(a, 100) == draws(b, 100)


def test_example_index_changes_sequence():
    a = new_stream(7, "543a7ed5", 0)
    b = new_stream(7, "543a7ed5", 1)
    assert draws(a, 100) != draws(b, 100)


def test_master_seed_changes_sequence():
    a = new_stream(7, "a", 0)
    b = new_stream(8, "a", 0)
    assert draws(a, 100) != draws(b, 100)


def test_task_id_changes_sequence():
    a = new_stream(7, "a", 0)
    b = new_stream(7, "b", 0)
    assert draws(a, 100) != draws(b, 100)


def test_degenerate_range():
    s = new_stream(1, "x", 0)
    assert s.randint(5, 5) == 5


def test_invalid_range():
    s = new_stream(1, "x", 0)
    with pytest.raises(ValueError):
        s.randint(3, 2)


def test_new_stream_argument_validation():
    with pytest.raises(ValueError):
        new_stream(0, "", 0)
    with pytest.raises(ValueError):
        new_stream(0, "x", -1)
    with pytest.raises(ValueError):
        new_stream(-1, "x", 0)
    with pytest.raises(ValueError):
        new_stream(2**64, "x", 0)
    # bool is an int subclass but not a seed or an index: True is not 1.
    with pytest.raises(ValueError, match="^master_seed must be an integer, got True$"):
        new_stream(True, "x", 0)
    with pytest.raises(ValueError, match="^example_index must be an integer, got False$"):
        new_stream(1, "x", False)
    # Keyed by its low 64 bits, index 2**64 + 5 would repeat index 5.
    new_stream(1, "x", 2**64 - 1)
    with pytest.raises(ValueError, match=r"^example_index 18446744073709551621 outside \[0, 18446744073709551615\]$"):
        new_stream(1, "x", 2**64 + 5)
    # Past Python's integer-to-text digit limit the seed is shown shortened.
    with pytest.raises(ValueError) as info:
        new_stream(10**5000, "x", 0)
    message = str(info.value)
    assert message.startswith("master_seed ")
    assert message.endswith("outside [0, 18446744073709551615]")
    assert len(message) < 200


def test_binary_frequency_within_3_sigma():
    s = new_stream(11, "frequency", 0)
    ones = sum(s.randint(0, 1) for _ in range(100_000))
    # 3 * sqrt(n * p * (1 - p)) = 3 * sqrt(100000 * 0.25) ~ 474.3
    assert abs(ones - 50_000) <= 474


def test_support_is_exact():
    s = new_stream(12, "support", 0)
    values = {s.randint(2, 7) for _ in range(100_000)}
    assert values == {2, 3, 4, 5, 6, 7}


def test_chi_square_uniformity():
    s = new_stream(13, "chi-square", 0)
    counts = [0] * 6
    for _ in range(100_000):
        counts[s.randint(2, 7) - 2] += 1
    expected = 100_000 / 6
    statistic = sum((count - expected) ** 2 / expected for count in counts)
    # The chi-square critical value for p = 0.001 at 5 degrees of freedom.
    assert statistic < 20.515005652432876


def test_draws_stay_in_range():
    s = new_stream(21, "range", 0)
    for _ in range(10_000):
        assert 2 <= s.randint(2, 7) <= 7


# The known-answer triples.
PEEK_STREAMS = [
    (0, "543a7ed5", 0),
    (2**64 - 1, "1e0a9b12", 7),
    (7, "grille-été-✓", 3),
    (123456789, "05269061", 2**63 + 12345),
]


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("key", PEEK_STREAMS)
def test_peek_equals_sequential_next_and_keeps_state(key, n):
    a, b = new_stream(*key), new_stream(*key)
    state = a.state
    assert a.peek_draws(n, 1)[0] == [b._next() for _ in range(n)]
    assert a.state == state


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("key", PEEK_STREAMS)
def test_skip_equals_sequential_next(key, n):
    a, b = new_stream(*key), new_stream(*key)
    a.skip(n)
    for _ in range(n):
        b._next()
    assert a.state == b.state


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_peek_wraps_past_two_to_the_64(n):
    # Within 3 increments of 2**64: every lane's counter wraps.
    a, b = new_stream(0, "x", 0), new_stream(0, "x", 0)
    a.state = b.state = 2**64 - 3
    assert a.state + _GOLDEN >= 2**64
    assert a.peek_draws(n, 1)[0] == [b._next() for _ in range(n)]
    a.skip(n)
    assert a.state == b.state


@pytest.mark.parametrize("span", [1, 6, 2**64])
@pytest.mark.parametrize("n", [0, 1, 24, 513])
@pytest.mark.parametrize("key", PEEK_STREAMS)
def test_peek_draws_are_the_multiply_shift_of_the_peeked_words(key, n, span):
    s = new_stream(*key)
    state = s.state
    words, draws = s.peek_draws(n, span)
    assert words == s.peek_draws(n, 1)[0]
    assert draws == [(w * span) >> 64 for w in words]
    assert s.state == state


def test_peek_draws_rejects_spans_outside_one_to_two_to_the_64():
    s = new_stream(1, "x", 0)
    for span in (0, 2**64 + 1):
        with pytest.raises(ValueError, match=rf"^span {span} outside \[1, {2**64}\]$"):
            s.peek_draws(8, span)


def test_peek_and_skip_reject_negative_counts():
    s = new_stream(1, "x", 0)
    with pytest.raises(ValueError):
        s.peek_draws(-1, 1)
    with pytest.raises(ValueError):
        s.skip(-1)
    # A fraction is not a count, and True is not one word.
    for n in (2.5, True):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n}$"):
            s.peek_draws(n, 1)
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n}$"):
            s.skip(n)


@pytest.mark.parametrize(
    "population, k",
    [(range(9), 0), (range(9), 9), (range(1, 10), 3), (["a", "b", "c", "d", "e"], 2), ([7], 1)],
)
def test_sample_takes_the_words_of_a_randint_and_swap_loop(population, k):
    stream, reference = new_stream(3, "sample", 0), new_stream(3, "sample", 0)
    pool = list(population)
    for i in range(k):
        j = reference.randint(i, len(pool) - 1)
        pool[i], pool[j] = pool[j], pool[i]
    before = list(population)
    assert stream.sample(population, k) == pool[:k]
    assert stream.state == reference.state
    assert list(population) == before


def test_sample_rejects_k_outside_the_population():
    s = new_stream(1, "x", 0)
    state = s.state
    for k in (-1, 4):
        with pytest.raises(ValueError, match=rf"^k {k} outside \[0, 3\]$"):
            s.sample(range(3), k)
    assert s.state == state


def test_cached_key_states_match_an_uncached_computation():
    # new_stream caches the state after the seed and task id are mixed in;
    # the states must be those of the three scrambles done in full, for the
    # known-answer triples, both the first time and from the cache.
    fixture = json.loads(Path(__file__).with_name("known_answers.json").read_text(encoding="utf-8"))
    keys = {(int(v["master_seed"]), v["task_id"]) for v in fixture["rng"]}
    indexes = {0, 1, 2**64 - 1} | {int(v["example_index"]) for v in fixture["rng"]}
    _keyed.cache_clear()
    for _ in range(2):
        for master_seed, task_id in sorted(keys):
            for index in sorted(indexes):
                state = _scramble((master_seed + _GOLDEN) & _MASK64)
                state = _scramble(state ^ _fnv1a(task_id))
                state = _scramble(state ^ index)
                assert new_stream(master_seed, task_id, index).state == state
    assert _keyed.cache_info().hits > 0
