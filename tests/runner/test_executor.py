"""Tests of the execution strategies (serial / forked worker pool)."""

import os

import pytest

from repro.runner.executor import (ProcessExecutor, SerialExecutor,
                                   make_executor, run_ordered)


def square(value):
    return value * value


class TestSerialExecutor:
    def test_yields_in_order(self):
        executor = SerialExecutor()
        assert list(executor.map_tasks(square, [1, 2, 3])) == \
            [(0, 1), (1, 4), (2, 9)]

    def test_empty_tasks(self):
        assert list(SerialExecutor().map_tasks(square, [])) == []


class TestProcessExecutor:
    def test_same_results_as_serial(self):
        tasks = list(range(13))
        serial = list(SerialExecutor().map_tasks(square, tasks))
        parallel = sorted(ProcessExecutor(jobs=2).map_tasks(square, tasks))
        assert parallel == serial

    def test_empty_tasks(self):
        assert list(ProcessExecutor(jobs=2).map_tasks(square, [])) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ProcessExecutor(jobs=0)


class TestMakeExecutor:
    def test_serial_for_one_job(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_process_pool_for_many_jobs(self):
        executor = make_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == 4

    def test_the_default_caps_at_every_usable_cpu(self):
        executor = make_executor(None)
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == len(os.sched_getaffinity(0))


class TestRunOrdered:
    def test_returns_input_order(self):
        results = run_ordered(ProcessExecutor(jobs=2), square, list(range(9)))
        assert results == [square(value) for value in range(9)]

    def test_streaming_callback_sees_every_result(self):
        seen = {}
        run_ordered(SerialExecutor(), square, [3, 4],
                    on_result=lambda index, result: seen.update({index: result}))
        assert seen == {0: 9, 1: 16}

    def test_none_executor_defaults_to_serial(self):
        assert run_ordered(None, square, [5]) == [25]
