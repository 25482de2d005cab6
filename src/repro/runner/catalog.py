"""The declarative catalogue of every paper experiment.

Each :class:`~repro.runner.registry.ExperimentSpec` here names one
experiment, its typed parameter schema and its output columns.
Everything a warm run, ``python -m repro list`` or a
:class:`repro.api.Session` needs — parameter resolution and the cache key —
comes from this module, which imports neither numpy nor the simulation
stack.  An experiment's adapter in :mod:`repro.runner.drivers` (and with
it the model) is imported only when the experiment first computes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

from repro.constants import (ROUTING_KINDS, SINGLE_HOP_TOPOLOGY_KINDS,
                             TOPOLOGY_KINDS, TRAFFIC_MODEL_KINDS)
from repro.runner.params import ParameterValueError, ParamSchema, ParamSpec
from repro.runner.registry import ExperimentRegistry, ExperimentSpec, RunContext


def jsonify(value: Any) -> Any:
    """Recursively coerce a payload to plain JSON types.

    Numpy scalars/arrays become Python numbers/lists, tuples become lists,
    and non-finite floats become ``None`` (JSON has no ``inf``/``nan``).
    """
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if hasattr(value, "tolist"):  # numpy array or scalar
        return jsonify(value.tolist())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return str(value)


class DriverAdapter:
    """The adapter ``repro.runner.drivers.<name>``, imported on first call.

    A class rather than a closure, so :meth:`resolve` can name the
    adapter without running it.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def resolve(self):
        from repro.runner import drivers
        return getattr(drivers, self.name)

    def __call__(self, params: Mapping[str, Any],
                 context: RunContext) -> Dict[str, Any]:
        return self.resolve()(params, context)


#: Row columns of experiments whose rows are report comparison rows.
REPORT_COLUMNS = ("quantity", "paper_value", "measured_value",
                  "relative_error", "within_tolerance", "note")


def _num_windows(default: int) -> ParamSpec:
    return ParamSpec("num_windows", "int", default, minimum=1, maximum=64,
                     doc="Monte-Carlo contention windows simulated per "
                         "grid point")


def _loads(default: List[float]) -> ParamSpec:
    return ParamSpec("loads", "list", default, element="float",
                     minimum=0.0, maximum=1.0,
                     doc="normalised offered loads evaluated")


def _beacon_order(default: int) -> ParamSpec:
    return ParamSpec("beacon_order", "int", default, minimum=0, maximum=14,
                     doc="IEEE 802.15.4 beacon order BO (inter-beacon "
                         "period 2^BO base superframes)")


def _superframe_within_beacon(params: Mapping[str, Any],
                              experiment: Optional[str]) -> None:
    """SO <= BO: the active portion cannot outlast the beacon interval
    (``superframe_order`` None means SO = BO)."""
    order, beacon = params["superframe_order"], params["beacon_order"]
    if order is not None and order > beacon:
        raise ParameterValueError(
            "superframe_order", order,
            f"None (SO = BO) or an int <= beacon_order ({beacon})",
            experiment, reason="the active portion would outlast the "
                               "beacon interval")


def _multi_hop_needs_geometry(params: Mapping[str, Any],
                              experiment: Optional[str]) -> None:
    """``max_hops`` above 1 needs a geometric topology: the star has no
    node-to-node links to relay over."""
    topology = params["topology"]
    if params["max_hops"] > 1 and topology in SINGLE_HOP_TOPOLOGY_KINDS:
        geometric = [kind for kind in TOPOLOGY_KINDS
                     if kind not in SINGLE_HOP_TOPOLOGY_KINDS]
        raise ParameterValueError(
            "max_hops", params["max_hops"],
            f"1 on the {topology} topology (pick {', '.join(geometric)} "
            f"to route over several hops)", experiment)


def build_default_registry() -> ExperimentRegistry:
    """Register every paper experiment and return the populated registry.

    Every spec declares a *typed* parameter schema: overrides from any
    entry point (CLI ``--param``, sweep axes, :meth:`repro.api.Session.run`
    keywords) are validated and canonicalised against it before anything
    runs or touches the cache.
    """
    registry = ExperimentRegistry()
    registry.register(ExperimentSpec(
        name="contention_table", figure="Fig. 6 (grid)",
        title="Monte-Carlo contention characterisation over the full "
              "(load, packet size) grid",
        runner=DriverAdapter("run_contention_table"),
        params=[
            _num_windows(15),
            ParamSpec("num_nodes", "int", 100, minimum=2,
                      doc="contending nodes sharing the channel"),
        ],
        output_names=("load", "packet_bytes", "t_cont_s", "n_cca",
                      "pr_col", "pr_cf", "samples"),
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig3_radio", figure="Fig. 3",
        title="CC2420 state powers, transition times and energies",
        runner=DriverAdapter("run_fig3"),
        params=[
            ParamSpec("power_goal_uw", "float", 100.0, minimum=1.0,
                      doc="energy-scavenging power budget the idle draw is "
                          "compared against [uW]"),
        ],
        output_names=REPORT_COLUMNS))
    registry.register(ExperimentSpec(
        name="fig4_ber", figure="Fig. 4",
        title="Bit error rate vs received power and the eq. (1) regression",
        runner=DriverAdapter("run_fig4"),
        params=[
            ParamSpec("bench_bits_per_point", "int", 60_000, minimum=1_000,
                      doc="bits pushed through the wired test bench per "
                          "receive-power point"),
        ],
        output_names=("series", "x", "y")))
    registry.register(ExperimentSpec(
        name="fig6_csma", figure="Fig. 6",
        title="Slotted CSMA/CA contention quantities vs load and packet size",
        runner=DriverAdapter("run_fig6"),
        params=[
            _loads([0.1, 0.2, 0.3, 0.42, 0.6, 0.8]),
            ParamSpec("payload_sizes", "list", [10, 20, 50, 100],
                      element="int", minimum=1, maximum=127,
                      doc="MAC payload sizes evaluated [bytes]"),
            _num_windows(12),
            ParamSpec("num_nodes", "int", 100, minimum=2,
                      doc="contending nodes sharing the channel"),
        ],
        output_names=("payload_bytes", "load", "on_air_bytes",
                      "t_cont_s", "n_cca", "pr_col", "pr_cf"),
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig7_link", figure="Fig. 7",
        title="Link adaptation: optimal energy per bit vs path loss",
        runner=DriverAdapter("run_fig7"),
        params=[
            _loads([0.2, 0.42, 0.6]),
            ParamSpec("payload_bytes", "int", 120, minimum=1, maximum=127,
                      doc="MAC payload per data packet [bytes]"),
            _beacon_order(6),
            _num_windows(15),
        ],
        output_names=("series", "x", "y"),
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig8_packet", figure="Fig. 8",
        title="Energy per bit vs payload size",
        runner=DriverAdapter("run_fig8"),
        params=[
            _loads([0.2, 0.42, 0.6]),
            ParamSpec("path_loss_db", "float", 75.0, minimum=0.0,
                      maximum=150.0,
                      doc="node-to-coordinator attenuation [dB]"),
            _beacon_order(6),
            _num_windows(15),
        ],
        output_names=("series", "x", "y"),
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig9_breakdown", figure="Fig. 9",
        title="Energy per phase and time per state breakdowns",
        runner=DriverAdapter("run_fig9"),
        params=[
            ParamSpec("path_loss_resolution", "int", 41, minimum=2,
                      doc="grid points of the path-loss expectation "
                          "integral"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="case_study", figure="Section 5",
        title="Dense-network case study headline numbers",
        runner=DriverAdapter("run_case_study"),
        params=[
            ParamSpec("path_loss_resolution", "int", 41, minimum=2,
                      doc="grid points of the path-loss expectation "
                          "integral"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="improvements", figure="Section 6",
        title="Improvement perspectives: faster transitions, scalable receiver",
        runner=DriverAdapter("run_improvements"),
        params=[
            ParamSpec("path_loss_resolution", "int", 31, minimum=2,
                      doc="grid points of the path-loss expectation "
                          "integral"),
            ParamSpec("transition_factor", "float", 0.5, minimum=0.0,
                      maximum=1.0,
                      doc="scale on every radio state-transition time"),
            ParamSpec("rx_scale", "float", 0.5, minimum=0.0, maximum=1.0,
                      doc="scale on the receive-state power draw"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="case_study_full", figure="Section 5 (simulated)",
        title="Full-scale packet-level simulation of the dense-network "
              "case study (batched lockstep kernel)",
        runner=DriverAdapter("run_case_study_full"),
        params=ParamSchema([
            ParamSpec("total_nodes", "int", 1600, minimum=1,
                      doc="sensor nodes in the network"),
            ParamSpec("num_channels", "int", None, minimum=1, maximum=16,
                      doc="FDMA cells (None: all 16 IEEE 802.15.4 "
                          "channels)"),
            ParamSpec("superframes", "int", 50, minimum=1,
                      doc="simulated horizon [superframes]"),
            _beacon_order(6),
            ParamSpec("superframe_order", "int", None, minimum=0, maximum=14,
                      doc="superframe order SO (None: SO = BO, no inactive "
                          "portion)"),
            ParamSpec("payload_bytes", "int", 120, minimum=1, maximum=127,
                      doc="MAC payload per data packet [bytes]"),
            ParamSpec("nodes_per_channel_cap", "int", None, minimum=1,
                      doc="cap on simulated nodes per channel (None: "
                          "uncapped)"),
            ParamSpec("backend", "str", "batched",
                      choices=("batched", "event"),
                      doc="simulation kernel: batched lockstep fan-out or "
                          "the discrete-event reference (per-channel "
                          "tasks)"),
            ParamSpec("replications", "int", 1, minimum=1,
                      doc="Monte-Carlo replications per channel "
                          "(replication 0 reuses the historical channel "
                          "seed)"),
            ParamSpec("battery_life_extension", "bool", False,
                      doc="IEEE 802.15.4 battery-life-extension CAP mode"),
            ParamSpec("csma_convention", "str", "paper",
                      choices=("paper", "standard"),
                      doc="CSMA give-up rule: paper (two BE increments) or "
                          "standard macMaxCSMABackoffs"),
            ParamSpec("tx_policy", "str", "adaptive",
                      choices=("adaptive", "fixed"),
                      doc="transmit power policy: channel inversion or "
                          "fixed 0 dBm"),
            ParamSpec("traffic_model", "str", "saturated",
                      choices=TRAFFIC_MODEL_KINDS,
                      doc="per-node packet process: saturated (paper's "
                          "one packet per superframe), periodic buffered "
                          "sensing, poisson, bursty alarms, or a mixed "
                          "population"),
            ParamSpec("traffic_rate_scale", "float", 1.0, minimum=0.01,
                      maximum=100.0,
                      doc="mean packet rate of the stochastic traffic "
                          "models relative to the paper's periodic "
                          "baseline (ignored by 'saturated')"),
            ParamSpec("traffic_mix", "float", 0.25, minimum=0.0, maximum=1.0,
                      doc="bursty-alarm node fraction of the 'mixed' "
                          "traffic population (the rest sense "
                          "periodically)"),
            ParamSpec("topology", "str", "star",
                      choices=TOPOLOGY_KINDS,
                      doc="per-channel node layout: the paper's star "
                          "(direct path-loss draw) or a geometric "
                          "placement (grid lattice, uniform disc, "
                          "clustered) whose losses derive from geometry"),
            ParamSpec("routing", "str", "gradient",
                      choices=ROUTING_KINDS,
                      doc="sink-tree discipline over a geometric "
                          "topology: gradient (min hops, then min "
                          "cumulative loss) or min_hop (seeded "
                          "tie-breaking)"),
            ParamSpec("max_hops", "int", 1, minimum=1, maximum=8,
                      doc="hop-depth cap of the routing tree (1: every "
                          "node on a direct sink link; needs a geometric "
                          "topology when above 1)"),
        ], rules=(_superframe_within_beacon, _multi_hop_needs_geometry)),
        output_names=("channel", "nodes", "packets_attempted",
                      "packets_delivered", "channel_access_failures",
                      "collisions", "failure_probability", "mean_power_uw",
                      "mean_delivery_delay_s", "energy_by_phase_j",
                      "superframes"),
        supports_jobs=True))
    registry.register(ExperimentSpec(
        name="model_vs_sim", figure="Section 4 (validation)",
        title="Analytical model vs packet-level MAC simulation",
        runner=DriverAdapter("run_model_vs_sim"),
        params=[
            ParamSpec("num_nodes", "int", 12, minimum=2,
                      doc="nodes in the simulated star network"),
            _beacon_order(3),
            ParamSpec("superframes", "int", 8, minimum=1,
                      doc="simulated horizon [superframes]"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        supports_jobs=True))
    return registry
