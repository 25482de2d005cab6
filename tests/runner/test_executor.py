"""Tests of the execution strategy (in the caller / forked worker pool)."""

import os

import pytest

from repro.runner.executor import ProcessExecutor, make_executor, run_ordered


def square(value):
    return value * value


class TestOneJob:
    def test_yields_in_order(self):
        executor = ProcessExecutor(jobs=1)
        assert list(executor.map_tasks(square, [1, 2, 3])) == \
            [(0, 1), (1, 4), (2, 9)]

    def test_empty_tasks(self):
        assert list(ProcessExecutor(jobs=1).map_tasks(square, [])) == []

    def test_yields_each_result_as_its_task_finishes(self):
        events = []

        def task(value):
            events.append(("run", value))
            return value

        for index, _ in ProcessExecutor(jobs=1).map_tasks(task, [0, 1, 2]):
            events.append(("result", index))
        assert events == [("run", 0), ("result", 0), ("run", 1),
                          ("result", 1), ("run", 2), ("result", 2)]


class TestProcessExecutor:
    def test_same_results_as_one_job(self):
        tasks = list(range(13))
        serial = list(ProcessExecutor(jobs=1).map_tasks(square, tasks))
        parallel = sorted(ProcessExecutor(jobs=2).map_tasks(square, tasks))
        assert parallel == serial

    def test_empty_tasks(self):
        assert list(ProcessExecutor(jobs=2).map_tasks(square, [])) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ProcessExecutor(jobs=0)


class TestMakeExecutor:
    @pytest.mark.parametrize("jobs", [1, 0])
    def test_one_job_or_less_runs_in_the_caller(self, jobs):
        executor = make_executor(jobs)
        assert isinstance(executor, ProcessExecutor)
        assert executor.jobs == 1

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
        run_ordered(ProcessExecutor(jobs=1), square, [3, 4],
                    on_result=lambda index, result: seen.update({index: result}))
        assert seen == {0: 9, 1: 16}

    @pytest.mark.parametrize("executor", [None, make_executor(1)],
                             ids=["none", "one-job"])
    def test_one_job_streams_result_by_result(self, executor):
        """A ``--jobs 1`` sweep reports each point before the next runs."""
        events = []

        def task(value):
            events.append(("run", value))
            return square(value)

        results = run_ordered(
            executor, task, [2, 3, 4],
            on_result=lambda index, result: events.append(("result", index)))
        assert results == [4, 9, 16]
        assert events == [("run", 2), ("result", 0), ("run", 3),
                          ("result", 1), ("run", 4), ("result", 2)]

    def test_none_executor_runs_in_the_caller(self):
        assert run_ordered(None, square, [5]) == [25]
