"""Checks that the documented public API surfaces are importable.

A downstream user relies on the package ``__init__`` re-exports documented in
the README and the module docstrings; these tests pin them so refactors do
not silently break the public surface.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


PUBLIC_SURFACE = {
    "repro": ["EnergyModel", "ModelConfig", "NodeEnergyBudget", "CaseStudy",
              "CaseStudyParameters", "CaseStudyResult", "ChannelInversionPolicy",
              "CC2420_PROFILE", "RadioState", "__version__"],
    "repro.sim": ["Environment", "Event", "Process", "Timeout", "Monitor",
                  "CounterMonitor", "RandomStreams"],
    "repro.phy": ["Band", "PhyTiming", "TIMING_2450MHZ", "EmpiricalBerModel",
                  "AnalyticOqpskErrorModel", "OqpskDsssModulator",
                  "packet_error_probability"],
    "repro.radio": ["RadioState", "RadioPowerProfile", "CC2420_PROFILE",
                    "CC2420Radio", "EnergyLedger", "BerCalibration",
                    "fit_exponential_ber"],
    "repro.channel": ["AwgnLink", "FreeSpacePathLoss", "LogDistancePathLoss",
                      "UniformPathLossDistribution", "WiredTestBench"],
    "repro.mac": ["MacConstants", "MAC_2450MHZ", "CsmaParameters",
                  "SlottedCsmaCa", "BeaconFrame", "DataFrame", "AckFrame",
                  "Superframe", "SuperframeConfig",
                  "BatchedChannelSimulator", "ChannelLane"],
    "repro.contention": ["ContentionSimulator", "ContentionStatistics",
                         "ContentionTable", "build_contention_table",
                         "ClosedFormContentionModel"],
    "repro.network": ["uniform_disc_placement",
                      "PeriodicSensingTraffic", "TrafficModel",
                      "SaturatedTraffic", "PoissonTraffic",
                      "BurstyAlarmTraffic",
                      "MixedPopulation", "build_traffic_model",
                      "SensorNode", "ScenarioSpec",
                      "EventChannelSimulator"],
    "repro.core": ["EnergyModel", "ModelConfig", "NodeEnergyBudget",
                   "ActivationPolicy", "ChannelInversionPolicy",
                   "PacketSizeOptimizer", "BeaconOrderSelector",
                   "EnergyBreakdown", "TimeBreakdown", "ImprovementAnalysis",
                   "CaseStudy"],
    "repro.analysis": ["format_table", "Series", "SeriesCollection",
                       "ExperimentReport"],
    "repro.experiments": ["run_fig3_radio_characterization", "run_fig4_ber",
                          "run_fig7_link_adaptation",
                          "run_fig8_packet_size", "run_fig9_breakdown",
                          "run_case_study", "run_improvements",
                          "run_model_vs_simulation"],
    "repro.runner": ["run_experiment", "RunResult", "ExperimentSpec",
                     "ExperimentRegistry", "UnknownExperimentError",
                     "default_registry", "ProcessExecutor",
                     "make_executor", "run_ordered", "ResultCache",
                     "NullCache", "code_version", "DEFAULT_SEED",
                     "ParamSpec", "ParamSchema", "ParameterValueError",
                     "UnknownParameterError", "parse_param"],
    "repro.api": ["Session", "RunResult", "SweepSpec", "GridAxis",
                  "OptimizeSpec", "ParamSpec", "ParamSchema",
                  "ParameterValueError", "UnknownParameterError",
                  "UnknownExperimentError", "DEFAULT_SEED", "code_version"],
    "repro.sweep": ["SweepSpec", "GridAxis", "OptimizeSpec", "run_sweep", "sweep_status", "expand_points",
                    "SweepRunResult", "SweepPoint", "SweepStatus",
                    "pareto_front", "knee_point", "dominates",
                    "export_sweep", "sweep_manifest", "get_sweep", "sweep_names",
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


#: The ``__all__`` of every lazily-exporting package.  Such a package
#: resolves a name only when it is first reached, so a slip in its export
#: table would surface in a user's program; pinning the sets keeps a
#: rewrite of an ``__init__`` from dropping or adding a public name.
EXPORTED_NAMES = {
    "repro": """
        CC2420_PROFILE CaseStudy CaseStudyParameters CaseStudyResult
        ChannelInversionPolicy EnergyModel ModelConfig NodeEnergyBudget
        RadioState __version__""",
    "repro.analysis": """
        ComparisonRow ExperimentReport Series SeriesCollection format_table""",
    "repro.bench": """
        BENCH_CASES SCHEMA_VERSION bench_path build_record compare_records
        git_sha machine_fingerprint read_record run_bench_case write_record""",
    "repro.channel": """
        AwgnLink FreeSpacePathLoss LogDistancePathLoss PathLossDistribution
        UniformPathLossDistribution WiredTestBench""",
    "repro.contention": """
        ClosedFormContentionModel ContentionSimulator ContentionStatistics
        ContentionTable WindowResult build_contention_table
        merge_statistics""",
    "repro.core": """
        ActivationPolicy BeaconOrderSelector CaseStudy CaseStudyParameters
        CaseStudyResult ChannelInversionPolicy EnergyBreakdown EnergyModel
        ImprovementAnalysis ImprovementResult ModelConfig NodeEnergyBudget
        PacketSizeOptimizer PolicyVariant PowerThreshold TimeBreakdown
        delivery_delay_s
        energy_per_data_bit_j
        transaction_failure_probability transmission_attempt_distribution
        transmission_failure_probability""",
    "repro.experiments": """
        run_case_study run_fig3_radio_characterization run_fig4_ber
        run_fig7_link_adaptation run_fig8_packet_size run_fig9_breakdown
        run_improvements run_model_vs_simulation""",
    "repro.mac": """
        AckFrame AddressingMode BatchedChannelSimulator
        BatteryLifeExtensionError BeaconFrame ChannelLane CsmaOutcome
        CsmaParameters CsmaResult DataFrame MAC_2450MHZ MacConstants MacFrame
        SlottedCsmaCa Superframe SuperframeConfig mac_overhead_bytes
        total_packet_overhead_bytes""",
    "repro.network": """
        BurstyAlarmTraffic ClusteredTopologyModel
        DiscTopologyModel EventChannelSimulator
        GradientRouting GridTopologyModel
        MinHopRouting MixedPopulation NetworkTopology NodePlacement
        PeriodicSensingTraffic PoissonTraffic ROUTING_KINDS RoutingModel
        SaturatedTraffic ScenarioSpec SensorNode SimulationSummary SinkTree
        TOPOLOGY_KINDS TopologyModel
        TrafficModel adaptive_tx_levels
        aggregate_channel_rows build_routing_model build_topology_model
        build_traffic_model clustered_placement depth_breakdown
        grid_placement lane_arrivals
        simulate_network uniform_disc_placement""",
    "repro.obs": """
        NULL_TRACER NullTracer Span TRACE_KIND TRACE_SCHEMA_VERSION
        TracedExecutor Tracer activate current_tracer deterministic_view
        phase_durations read_trace render_report validate_trace write_trace""",
    "repro.phy": """
        AnalyticOqpskErrorModel Band CHANNEL_PAGES CHIP_SEQUENCES
        EmpiricalBerModel ErrorModel OqpskDsssModulator PHY_HEADER_BYTES
        PHY_PREAMBLE_BYTES PHY_SFD_BYTES PhyTiming TIMING_2450MHZ
        channels_in_band packet_error_probability""",
    "repro.radio": """
        BerCalibration CC2420Radio CC2420_PROFILE EnergyLedger
        IllegalTransitionError RadioEvent RadioPowerProfile RadioState
        StateTransition TxPowerLevel fit_exponential_ber""",
    "repro.runner": """
        DEFAULT_SEED ExperimentRegistry ExperimentSpec NullCache
        ParamSchema ParamSpec ParameterValueError ProcessExecutor
        ResultCache RunContext RunResult
        UnknownExperimentError UnknownParameterError code_version
        default_registry make_executor parse_param run_experiment
        run_ordered""",
    "repro.sim": """
        CounterMonitor Environment Event Monitor Process RandomStreams
        SimulationError Timeout spawn_seeds""",
    "repro.sweep": """
        GridAxis OptimizeResult OptimizeRound OptimizeSpec SweepDefinition
        SweepPoint SweepRunResult SweepSpec SweepStatus UnknownMetricError
        UnknownSweepError axis_from_payload build_points dispatch_points
        dominates expand_points export_sweep extract_point_metrics
        get_definition get_optimize get_optimize_definition get_sweep
        iter_definitions iter_optimize_definitions knee_point
        optimize_names pareto_front require_metrics run_optimize run_sweep
        spec_from_payload sweep_manifest sweep_names sweep_status""",
}

#: Resolves every export of the packages named in argv, first through the
#: package (the lazy path) and then from the module its table names.
_RESOLVE_EXPORTS = """
import importlib, json, sys
report = {}
for package_name in sys.argv[1:]:
    package = importlib.import_module(package_name)
    wrong = [name for module_name, names in package._EXPORTS.items()
             for name in names
             if getattr(package, name)
             is not getattr(importlib.import_module(module_name), name)]
    report[package_name] = {
        "all": package.__all__, "wrong": wrong,
        "unbound": [name for name in package.__all__
                    if not hasattr(package, name)],
        "undir": sorted(set(package.__all__) - set(dir(package)))}
print(json.dumps(report))
"""


def test_every_lazy_export_resolves_to_its_defining_modules_object():
    """In a fresh interpreter, so each name's first lookup goes through the
    package's ``__getattr__``."""
    completed = subprocess.run(
        [sys.executable, "-c", _RESOLVE_EXPORTS, *sorted(EXPORTED_NAMES)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout)
    for package_name, names in EXPORTED_NAMES.items():
        entry = report[package_name]
        assert sorted(entry["all"]) == sorted(names.split()), package_name
        assert len(set(entry["all"])) == len(entry["all"]), package_name
        assert not entry["wrong"], (package_name, entry["wrong"])
        assert not entry["unbound"], (package_name, entry["unbound"])
        assert not entry["undir"], (package_name, entry["undir"])


def test_the_package_quick_start_prints_what_it_shows():
    """The ``repro`` docstring's quick start, run as a doctest."""
    import doctest

    import repro
    results = doctest.testmod(repro)
    assert results.attempted > 0
    assert results.failed == 0
