"""Checks that the documented public API surfaces are importable.

A downstream user relies on the package ``__init__`` re-exports documented in
the README and the module docstrings; these tests pin them so refactors do
not silently break the public surface.
"""

import importlib

import pytest


PUBLIC_SURFACE = {
    "repro": ["EnergyModel", "ModelConfig", "NodeEnergyBudget", "CaseStudy",
              "CaseStudyParameters", "CaseStudyResult", "ChannelInversionPolicy",
              "CC2420_PROFILE", "RadioState", "__version__"],
    "repro.sim": ["Environment", "Event", "Process", "Timeout", "Monitor",
                  "TimeWeightedMonitor", "CounterMonitor", "RandomStreams",
                  "Resource", "Store"],
    "repro.phy": ["Band", "PhyTiming", "TIMING_2450MHZ", "EmpiricalBerModel",
                  "AnalyticOqpskErrorModel", "PhyFrame", "OqpskDsssModulator",
                  "packet_error_probability"],
    "repro.radio": ["RadioState", "RadioPowerProfile", "CC2420_PROFILE",
                    "CC2420Radio", "EnergyLedger", "BerCalibration",
                    "fit_exponential_ber"],
    "repro.channel": ["AwgnLink", "CoherenceModel", "BlockFadingChannel",
                      "FreeSpacePathLoss", "LogDistancePathLoss",
                      "UniformPathLossDistribution", "WiredTestBench"],
    "repro.mac": ["MacConstants", "MAC_2450MHZ", "CsmaParameters",
                  "SlottedCsmaCa", "BeaconFrame", "DataFrame", "AckFrame",
                  "GtsManager", "IndirectQueue", "Superframe",
                  "SuperframeConfig", "AssociationService", "CommandFrame",
                  "BatchedChannelSimulator", "ChannelLane"],
    "repro.contention": ["ContentionSimulator", "ContentionStatistics",
                         "ContentionTable", "build_contention_table",
                         "ClosedFormContentionModel"],
    "repro.network": ["StarTopology", "uniform_disc_placement",
                      "PeriodicSensingTraffic", "BufferedTrafficSource",
                      "TrafficModel", "TrafficSource", "SaturatedTraffic",
                      "PoissonTraffic", "BurstyAlarmTraffic",
                      "MixedPopulation", "build_traffic_model",
                      "ChannelAllocator", "SensorNode",
                      "DenseNetworkScenario", "ChannelScenario"],
    "repro.core": ["EnergyModel", "ModelConfig", "NodeEnergyBudget",
                   "ActivationPolicy", "ChannelInversionPolicy",
                   "PacketSizeOptimizer", "BeaconOrderSelector",
                   "EnergyBreakdown", "TimeBreakdown", "ImprovementAnalysis",
                   "CaseStudy", "LifetimeAnalysis", "SensitivityAnalysis"],
    "repro.analysis": ["format_table", "Series", "SeriesCollection",
                       "ExperimentReport", "typed_key"],
    "repro.experiments": ["run_fig3_radio_characterization", "run_fig4_ber",
                          "run_fig6_csma", "run_fig7_link_adaptation",
                          "run_fig8_packet_size", "run_fig9_breakdown",
                          "run_case_study", "run_improvements",
                          "run_model_vs_simulation", "default_model"],
    "repro.runner": ["run_experiment", "RunResult", "ExperimentSpec",
                     "ExperimentRegistry", "UnknownExperimentError",
                     "default_registry", "SerialExecutor", "ProcessExecutor",
                     "make_executor", "run_ordered", "ResultCache",
                     "NullCache", "code_version", "DEFAULT_SEED",
                     "ParamSpec", "ParamSchema", "ParameterValueError",
                     "UnknownParameterError", "parse_param"],
    "repro.api": ["Session", "RunResult", "SweepSpec", "GridAxis",
                  "RangeAxis", "RandomAxis", "ParamSpec", "ParamSchema",
                  "ParameterValueError", "UnknownParameterError",
                  "UnknownExperimentError", "DEFAULT_SEED", "code_version"],
    "repro.sweep": ["SweepSpec", "GridAxis", "RangeAxis", "RandomAxis",
                    "run_sweep", "sweep_status", "expand_points",
                    "SweepRunResult", "SweepPoint", "SweepStatus",
                    "pareto_front", "knee_point", "dominates", "group_rows",
                    "aggregate_rows", "export_sweep", "sweep_manifest",
                    "write_rows", "get_sweep", "sweep_names",
                    "UnknownSweepError", "spec_from_payload"],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_SURFACE[module_name]:
        assert hasattr(module, name), f"{module_name} is missing {name}"


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_all_lists_are_importable(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"
