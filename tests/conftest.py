"""Fixtures shared by the test modules."""

import pytest

from gridbench import TaskSet, generate_examples


@pytest.fixture
def make_task_set():
    """``make_task_set(task_id, count, master_seed)``: the examples of
    :func:`generate_examples` as a task set, ``count`` train and one test."""

    def make(task_id: str, count: int, master_seed: int) -> TaskSet:
        examples = list(generate_examples(task_id, count, master_seed))
        return TaskSet(train=examples[:count], test=examples[count:])

    return make
