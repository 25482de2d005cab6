"""Tests of the registered headline sweeps."""

import pytest

from repro.runner.registry import default_registry
from repro.sweep.catalog import (TRADEOFF_OBJECTIVES, UnknownSweepError,
                                 get_definition, get_optimize, get_sweep,
                                 iter_definitions, optimize_names,
                                 sweep_names)
from repro.sweep.driver import expand_points

#: ``spec_hash`` of every catalogue entry, (quick, full).  The hash is the
#: identity of a run's manifests: a change to a catalogue spec, or to how
#: specs serialise, shows here before it re-keys exported artifacts.
SPEC_HASHES = {
    "case_study_power_grid": ("2819d46ba96574e6", "42e66d4ea992e5c6"),
    "duty_cycle": ("dbd5c83b5246e4a8", "09ceaaa17245f8e7"),
    "node_density": ("c7d9ca39c42fe15c", "5785fe5718943148"),
    "topology_depth": ("5ddf5cfaf3b30693", "eee8231e879bada3"),
    "traffic_mix": ("d4149af3247461fa", "46725f41ff43be95"),
    "tx_policy": ("277057349572f95d", "36a785cefed61f79"),
    "case_study_power": ("cc6f85f4ce2fdbc3", "694d87357da9de5f"),
}


class TestCatalogue:
    def test_headline_sweeps_registered(self):
        assert sweep_names() == ("case_study_power_grid", "duty_cycle",
                                 "node_density", "topology_depth",
                                 "traffic_mix", "tx_policy")

    def test_definitions_iterate_in_name_order(self):
        names = [definition.name for definition in iter_definitions()]
        assert names == list(sweep_names())

    def test_unknown_sweep_suggests(self):
        with pytest.raises(UnknownSweepError, match="node_density"):
            get_definition("node_densty")

    @pytest.mark.parametrize("get, name, message", [
        (get_sweep, "case_study_power",
         "Unknown sweep 'case_study_power'. Registered sweeps: "),
        (get_optimize, "case_study_power_grid",
         "Unknown optimizer 'case_study_power_grid'. Registered "
         "optimizers: case_study_power. Did you mean: case_study_power?"),
    ])
    def test_sweeps_and_optimizers_are_looked_up_apart(self, get, name,
                                                       message):
        with pytest.raises(UnknownSweepError) as excinfo:
            get(name)
        assert str(excinfo.value).startswith(message)

    @pytest.mark.parametrize("quick", [True, False])
    @pytest.mark.parametrize("name", sweep_names() + optimize_names())
    def test_spec_hashes_are_pinned(self, name, quick):
        get = get_optimize if name in optimize_names() else get_sweep
        assert get(name, quick=quick).spec_hash() == \
            SPEC_HASHES[name][0 if quick else 1]

    @pytest.mark.parametrize("name", sweep_names())
    def test_every_sweep_expands_against_the_registry(self, name, tmp_path):
        """Both variants of every registered sweep must expand cleanly:
        all axis and base parameters exist on the experiment, so a sweep
        can never fail after the first point has been computed."""
        for quick in (False, True):
            spec = get_sweep(name, quick=quick)
            assert spec.experiment in default_registry()
            points = expand_points(spec, cache=False,
                                   cache_root=tmp_path)
            assert len(points) == spec.num_points()
            assert len({point.cache_key for point in points}) == len(points)

    @pytest.mark.parametrize("name", sweep_names())
    def test_quick_variants_are_small_and_distinct(self, name):
        full = get_sweep(name)
        quick = get_sweep(name, quick=True)
        assert quick.num_points() <= full.num_points()
        assert quick.spec_hash() != full.spec_hash()
        # Quick variants must stay tiny: a couple of channels, a handful
        # of superframes, so CI smokes the pipeline in seconds.
        assert quick.base_params.get("num_channels", 16) <= 2
        assert quick.base_params.get("superframes", 50) <= 8

    @pytest.mark.parametrize("name", sweep_names())
    def test_all_share_the_paper_tradeoff_objectives(self, name):
        spec = get_sweep(name)
        assert dict(spec.objectives) == TRADEOFF_OBJECTIVES

    def test_node_density_varies_population(self):
        spec = get_sweep("node_density")
        values = spec.axis_values()["total_nodes"]
        assert 1600 in values and values == sorted(values)

    def test_duty_cycle_covers_full_active_and_duty_cycled(self):
        spec = get_sweep("duty_cycle")
        assert set(spec.axis_values()["superframe_order"]) == {None, 3}
        # SO=3 never exceeds any swept BO, so every point is valid.
        assert min(spec.axis_values()["beacon_order"]) >= 3

    def test_tx_policy_compares_adaptive_and_fixed(self):
        spec = get_sweep("tx_policy")
        assert set(spec.axis_values()["tx_policy"]) == {"adaptive", "fixed"}

    def test_traffic_mix_covers_every_registered_model(self):
        from repro.network.traffic import TRAFFIC_MODEL_KINDS

        quick = get_sweep("traffic_mix", quick=True)
        assert tuple(quick.axis_values()["traffic_model"]) == \
            TRAFFIC_MODEL_KINDS
        # The full variant crosses the offered-load scale with the models
        # it affects; 'saturated' ignores traffic_rate_scale, so including
        # it would recompute identical full-scale points.
        spec = get_sweep("traffic_mix")
        assert "saturated" not in spec.axis_values()["traffic_model"]
        assert set(spec.axis_values()["traffic_model"]) == \
            set(TRAFFIC_MODEL_KINDS) - {"saturated"}
        assert 1.0 in spec.axis_values()["traffic_rate_scale"]

    def test_topology_depth_sweeps_the_hop_cap_over_the_grid(self):
        spec = get_sweep("topology_depth")
        assert spec.base_params["topology"] == "grid"
        assert spec.axis_values()["max_hops"] == sorted(
            spec.axis_values()["max_hops"])
        assert 1 in spec.axis_values()["max_hops"]
        # The quick variant's 32-node grid fills three rings (8 + 16 + 8),
        # so every swept hop cap yields a structurally different tree.
        quick = get_sweep("topology_depth", quick=True)
        assert quick.base_params["total_nodes"] == 32
        assert max(quick.axis_values()["max_hops"]) == 3
