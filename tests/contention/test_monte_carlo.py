"""Tests of the Monte-Carlo contention simulator (Figure 6 machinery)."""

import numpy as np
import pytest

from repro.contention.analytical import ClosedFormContentionModel
from repro.contention.monte_carlo import ContentionSimulator
from repro.mac.csma import CsmaParameters


class TestUnitsAndSetup:
    def test_packet_slots(self):
        simulator = ContentionSimulator()
        # 133 bytes x 32 us = 4.256 ms -> 14 slots of 320 us.
        assert simulator.packet_slots(133) == 14
        assert simulator.packet_slots(23) == 3

    def test_occupancy_includes_ack(self):
        simulator = ContentionSimulator()
        assert simulator.occupancy_slots(133) > simulator.packet_slots(133)

    def test_window_slots_for_load(self):
        simulator = ContentionSimulator(num_nodes=100)
        window = simulator.window_slots_for_load(0.42, 133)
        # 100 x 13.3 slots of airtime at 42 % load -> ~3167 slots.
        assert window == pytest.approx(3167, rel=0.02)

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            ContentionSimulator().window_slots_for_load(0.0, 133)

    def test_invalid_constructor_arguments(self):
        with pytest.raises(ValueError):
            ContentionSimulator(num_nodes=0)


class TestSimulateWindow:
    def test_every_node_reaches_a_terminal_state(self):
        simulator = ContentionSimulator(num_nodes=50, seed=1)
        window = simulator.simulate_window(packet_bytes=133, window_slots=2000)
        assert len(window.attempts) == 50
        for attempt in window.attempts:
            assert attempt.finish_slot is not None
            assert attempt.cca_count >= 1
        assert window.transmissions + window.access_failures == 50

    def test_sparse_window_has_no_collisions(self):
        simulator = ContentionSimulator(num_nodes=5, seed=2)
        window = simulator.simulate_window(packet_bytes=23, window_slots=100_000)
        assert window.collisions == 0
        assert window.access_failures == 0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ContentionSimulator().simulate_window(133, 0)

    def test_contention_slots_are_backoff_delays_plus_ccas(self):
        # Every CCA takes one slot and every backoff delay, the first
        # included, lies between arrival and finish.  A granted attempt
        # finishes the slot after its last CCA, a failed one on it.
        simulator = ContentionSimulator(num_nodes=100, seed=23)
        window = simulator.simulate_window(packet_bytes=63, window_slots=1500)
        assert window.access_failures > 0 and window.transmissions > 0
        for attempt in window.attempts:
            assert attempt.contention_slots == (
                attempt.backoff_slots + attempt.cca_count
                - (0 if attempt.access_granted else 1))

    def test_reproducibility(self):
        a = ContentionSimulator(num_nodes=30, seed=7).characterize(0.42, 133, 5)
        b = ContentionSimulator(num_nodes=30, seed=7).characterize(0.42, 133, 5)
        assert a.channel_access_failure_probability == \
            b.channel_access_failure_probability
        assert a.mean_contention_time_s == b.mean_contention_time_s


class TestCharacterize:
    @pytest.fixture(scope="class")
    def sweep(self):
        simulator = ContentionSimulator(num_nodes=100, seed=11)
        loads = [0.1, 0.42, 0.8]
        return {load: simulator.characterize(load, 133, num_windows=8)
                for load in loads}

    def test_failure_probability_grows_with_load(self, sweep):
        assert sweep[0.1].channel_access_failure_probability \
            < sweep[0.42].channel_access_failure_probability \
            < sweep[0.8].channel_access_failure_probability

    def test_collision_probability_grows_with_load(self, sweep):
        assert sweep[0.1].collision_probability < sweep[0.8].collision_probability

    def test_cca_count_grows_with_load(self, sweep):
        assert sweep[0.1].mean_cca_count < sweep[0.8].mean_cca_count

    def test_contention_time_grows_with_load(self, sweep):
        assert sweep[0.1].mean_contention_time_s < sweep[0.8].mean_contention_time_s

    def test_cca_count_bounds(self, sweep):
        # With the paper convention (CW=2, 2 extra backoffs) N_CCA lies in [2, 6].
        for stats in sweep.values():
            assert 2.0 <= stats.mean_cca_count <= 6.0

    def test_case_study_point_consistent_with_paper(self, sweep):
        # Pr_cf at the case-study point must be in the ballpark of the
        # paper's 16 % transaction-failure probability.
        stats = sweep[0.42]
        assert 0.08 <= stats.channel_access_failure_probability <= 0.30

    def test_low_load_contention_time_near_initial_backoff(self, sweep):
        # At 10 % load contention is dominated by the first random backoff
        # (mean 3.5 slots = 1.12 ms) plus two CCA slots.
        assert 1e-3 < sweep[0.1].mean_contention_time_s < 4e-3

    def test_smaller_packets_collide_more_at_fixed_load(self):
        simulator = ContentionSimulator(num_nodes=100, seed=13)
        small = simulator.characterize(0.42, 23, num_windows=8)
        large = simulator.characterize(0.42, 133, num_windows=8)
        assert small.collision_probability > large.collision_probability

    def test_num_windows_must_be_positive(self):
        with pytest.raises(ValueError):
            ContentionSimulator().characterize(0.42, 133, num_windows=0)

    def test_mean_backoff_agrees_with_closed_form_at_low_load(self):
        # At 5 % load nearly every attempt clears its first stage, so the mean
        # backoff is mostly the first delay (uniform on 0..7, mean 3.5).  The
        # closed form gives 4.53 slots.  1000 attempts have a standard error
        # of ~0.16 slot; the tolerance is 0.5 slot (~3 standard errors).
        simulated = ContentionSimulator(num_nodes=100, seed=0).characterize(
            0.05, 133, num_windows=10)
        closed_form = ClosedFormContentionModel().evaluate(0.05, 133)
        assert simulated.samples == 1000
        assert simulated.mean_backoff_slots == pytest.approx(
            closed_form.mean_backoff_slots, abs=0.5)

    def test_contention_time_is_backoff_plus_cca_slots(self, sweep):
        # The per-attempt identity, averaged: T_cont in slots equals the mean
        # backoff plus the mean CCA count, less one slot per failure.
        slot_s = ContentionSimulator().constants.unit_backoff_period_s
        for stats in sweep.values():
            assert stats.mean_contention_time_s / slot_s == pytest.approx(
                stats.mean_backoff_slots + stats.mean_cca_count
                - stats.channel_access_failure_probability)


class TestCharacterizeGrid:
    POINTS = [(0.2, 33), (0.42, 133), (0.8, 63)]

    def test_serial_and_parallel_grids_are_identical(self):
        from repro.contention.monte_carlo import characterize_grid
        from repro.runner.executor import ProcessExecutor

        serial = characterize_grid(self.POINTS, num_windows=2, num_nodes=25,
                                   seed=3)
        parallel = characterize_grid(self.POINTS, num_windows=2, num_nodes=25,
                                     seed=3, executor=ProcessExecutor(jobs=2))
        assert serial == parallel

    def test_results_align_with_input_points(self):
        from repro.contention.monte_carlo import characterize_grid

        stats = characterize_grid(self.POINTS, num_windows=2, num_nodes=25,
                                  seed=3)
        assert [(s.load, s.packet_bytes) for s in stats] == \
            [(load, size) for load, size in self.POINTS]

    def test_points_are_independent_of_grid_shape(self):
        # The same point with the same spawned seed index gives the same
        # statistics whether characterised alone or within a larger grid.
        from repro.contention.monte_carlo import characterize_grid

        alone = characterize_grid([self.POINTS[0]], num_windows=2,
                                  num_nodes=25, seed=3)
        within = characterize_grid(self.POINTS, num_windows=2,
                                   num_nodes=25, seed=3)
        assert alone[0] == within[0]

    def test_stream_names_decorrelate(self):
        from repro.contention.monte_carlo import characterize_grid

        a = characterize_grid([self.POINTS[0]], num_windows=2, num_nodes=25,
                              seed=3, stream_name="grid-a")
        b = characterize_grid([self.POINTS[0]], num_windows=2, num_nodes=25,
                              seed=3, stream_name="grid-b")
        assert a[0] != b[0]


class TestWindowStatistics:
    def test_matches_window_result_counters(self):
        from repro.contention.monte_carlo import window_statistics

        simulator = ContentionSimulator(num_nodes=40, seed=5)
        window = simulator.simulate_window(packet_bytes=63, window_slots=800)
        stats = window_statistics(window, load=0.5, packet_bytes=63,
                                  slot_s=simulator.constants.unit_backoff_period_s)
        assert stats.samples == len(window.attempts)
        assert stats.channel_access_failure_probability == \
            window.access_failures / len(window.attempts)
        expected_pr_col = (window.collisions / window.transmissions
                          if window.transmissions else 0.0)
        assert stats.collision_probability == expected_pr_col


class TestBatteryLifeExtensionBehaviour:
    def test_ble_mode_fails_more_in_dense_conditions(self, energy_model):
        """The paper avoids battery-life extension in dense networks because
        the shortened backoff window collapses under load.  With spread
        arrivals the degradation shows up as a markedly higher channel
        access failure probability, and it carries through the energy model
        to a higher transaction failure probability at the case-study
        operating point."""
        normal = ContentionSimulator(
            num_nodes=100, seed=19,
            csma_params=CsmaParameters()).characterize(0.6, 133, 8)
        ble = ContentionSimulator(
            num_nodes=100, seed=19,
            csma_params=CsmaParameters(battery_life_extension=True)) \
            .characterize(0.6, 133, 8)
        assert ble.channel_access_failure_probability > \
            normal.channel_access_failure_probability * 1.2

        def failure(contention):
            return energy_model.evaluate(
                payload_bytes=120, tx_power_dbm=0.0, path_loss_db=75.0,
                load=0.6, contention=contention).transaction_failure_probability

        assert failure(ble) > failure(normal)
