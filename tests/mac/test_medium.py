"""Unit tests of the shared-medium model."""

import pytest

from repro.mac.frames import DataFrame
from repro.mac.medium import Medium, Transmission
from repro.sim.engine import Environment


class TestTransmission:
    def test_overlap_detection(self):
        a = Transmission(1, 0.0, 1.0, None, 0.0)
        b = Transmission(2, 0.5, 1.5, None, 0.0)
        c = Transmission(3, 1.0, 2.0, None, 0.0)
        assert a.overlaps(b)
        assert b.overlaps(a)
        assert not a.overlaps(c)       # touching intervals do not overlap

    @pytest.mark.parametrize("start_s, end_s, overlaps", [
        (0.25, 0.75, True),            # contained in the first frame
        (0.0, 1.0, True),              # the same interval
        (-1.0, 0.0, False),            # ends as the first frame starts
        (2.0, 3.0, False),             # disjoint
    ])
    def test_overlap_is_symmetric(self, start_s, end_s, overlaps):
        first = Transmission(1, 0.0, 1.0, None, 0.0)
        second = Transmission(2, start_s, end_s, None, 0.0)
        assert first.overlaps(second) is overlaps
        assert second.overlaps(first) is overlaps


class TestMedium:
    def test_idle_channel(self):
        medium = Medium(Environment())
        assert not medium.is_busy()

    def test_busy_during_transmission(self):
        env = Environment()
        medium = Medium(env)
        medium.start_transmission(source=1, duration_s=1e-3,
                                  frame=DataFrame(payload=b"x"), tx_power_dbm=0.0)
        seen = []

        def sense(delay_s):
            yield env.timeout(delay_s)
            seen.append((delay_s, medium.is_busy()))

        env.process(sense(0.999e-3))
        env.process(sense(1e-3))
        assert medium.is_busy()
        env.run()
        assert seen == [(0.999e-3, True), (1e-3, False)]

    def test_channel_frees_after_transmission(self):
        env = Environment()
        medium = Medium(env)
        medium.start_transmission(1, 1e-3, DataFrame(payload=b"x"), 0.0)

        def waiter():
            yield env.timeout(2e-3)

        env.process(waiter())
        env.run()
        assert not medium.is_busy()

    def test_overlapping_transmissions_collide(self):
        env = Environment()
        medium = Medium(env)
        first = medium.start_transmission(1, 1e-3, DataFrame(payload=b"a"), 0.0)
        second = medium.start_transmission(2, 1e-3, DataFrame(payload=b"b"), 0.0)
        assert first.collided and second.collided
        assert medium.collision_count >= 1
        assert medium.transmission_count == 2

    def test_sequential_transmissions_do_not_collide(self):
        env = Environment()
        medium = Medium(env)
        first = medium.start_transmission(1, 1e-3, DataFrame(payload=b"a"), 0.0)

        def later():
            yield env.timeout(2e-3)
            second = medium.start_transmission(2, 1e-3, DataFrame(payload=b"b"), 0.0)
            assert not second.collided

        env.process(later())
        env.run()
        assert not first.collided

    def test_a_frame_starting_as_another_ends_does_not_collide(self):
        env = Environment()
        medium = Medium(env)
        first = medium.start_transmission(1, 1e-3, DataFrame(payload=b"a"), 0.0)
        frames = []

        def back_to_back():
            yield env.timeout(1e-3)
            frames.append(medium.start_transmission(
                2, 1e-3, DataFrame(payload=b"b"), 0.0))

        env.process(back_to_back())
        env.run()
        assert not first.collided and not frames[0].collided
        assert medium.collision_count == 0

    def test_collision_count_counts_frames_that_found_the_air_occupied(self):
        # A long frame, then two short ones that each start while it is on
        # the air: the long frame is destroyed once, each newcomer counts.
        env = Environment()
        medium = Medium(env)
        long_frame = medium.start_transmission(1, 2e-3,
                                               DataFrame(payload=b"a"), 0.0)
        late = []

        def join(delay_s, source):
            yield env.timeout(delay_s)
            late.append(medium.start_transmission(
                source, 0.25e-3, DataFrame(payload=b"b"), 0.0))

        env.process(join(0.5e-3, 2))
        env.process(join(1.5e-3, 3))
        env.run()
        assert long_frame.collided
        assert all(frame.collided for frame in late)
        assert medium.collision_count == 2
        assert medium.transmission_count == 3

    def test_transmission_records_what_went_on_air(self):
        env = Environment(initial_time=2.0)
        medium = Medium(env)
        frame = DataFrame(payload=b"abc")
        transmission = medium.start_transmission(7, 0.5, frame, -5.0)
        assert (transmission.source, transmission.frame,
                transmission.tx_power_dbm) == (7, frame, -5.0)
        assert (transmission.start_s, transmission.end_s) == (2.0, 2.5)
        assert not transmission.collided
