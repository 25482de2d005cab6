"""Unit tests of the discrete-event simulation kernel."""

import pytest

from repro.sim.engine import Environment, Process, SimulationError


class TestEnvironmentBasics:
    def test_clock_starts_at_initial_time(self):
        assert Environment().now == 0.0
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.timeout(1.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_time_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)

    def test_step_without_events_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_peek_empty_queue_is_infinite(self):
        assert Environment().peek() == float("inf")

    def test_events_processed_in_time_order(self):
        env = Environment()
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(3.0, "c"))
        env.process(proc(1.0, "a"))
        env.process(proc(2.0, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_processed_in_schedule_order(self):
        env = Environment()
        order = []

        def proc(tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(proc(tag))
        env.run()
        assert order == ["first", "second", "third"]

    def test_run_until_the_current_time_processes_events_due_now(self):
        # Events due at the stop time still run; the clock does not move.
        env = Environment()
        started = []

        def proc():
            started.append(env.now)
            yield env.timeout(1.0)
            started.append(env.now)

        env.process(proc())
        assert env.run(until=0.0) is None
        assert started == [0.0] and env.now == 0.0

    def test_peek_reports_the_earliest_event(self):
        env = Environment()
        env.timeout(2.0)
        env.timeout(0.5)
        assert env.peek() == 0.5
        env.step()
        assert env.now == 0.5 and env.peek() == 2.0


class TestTimeout:
    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_delay_counts_from_the_current_time(self):
        env = Environment(initial_time=5.0)
        fired = []

        def proc():
            yield env.timeout(2.0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [7.0]

    def test_zero_delay_fires_without_advancing_the_clock(self):
        env = Environment(initial_time=3.0)
        fired = []

        def proc():
            yield env.timeout(0.0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [3.0]


class TestEvent:
    def test_yielding_an_already_processed_event_raises(self):
        # Nothing could ever resume the process; the kernel's processes
        # only wait on fresh timeouts.
        env = Environment()
        done = env.timeout(1.0)
        env.run(until=2.0)
        assert done.callbacks is None

        def late_waiter():
            yield done

        env.process(late_waiter())
        with pytest.raises(SimulationError, match="already processed"):
            env.run()


class TestProcess:
    def test_process_requires_generator(self):
        env = Environment()
        with pytest.raises(SimulationError):
            Process(env, lambda: None)

    def test_yielding_a_process_raises(self):
        # Processes are not events: nothing waits on another process.
        env = Environment()

        def child():
            yield env.timeout(1.0)

        def parent():
            yield env.process(child())

        env.process(parent())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_yield_non_event_raises(self):
        env = Environment()

        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_inside_process_propagates(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(proc())
        with pytest.raises(ValueError, match="inside"):
            env.run()
