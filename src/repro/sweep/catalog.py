"""Catalogue of the registered headline sweeps and adaptive searches.

Six design-space explorations over the full-scale packet-level simulator
(``case_study_full``), each capturing one axis of the paper's Section 5/6
trade-off story:

* ``node_density`` — energy/reliability/latency vs network population;
* ``duty_cycle`` — the BO/SO superframe structure: full-active (SO = BO)
  against a duty-cycled CAP (SO fixed) across beacon orders;
* ``tx_policy`` — channel-inversion link adaptation against fixed 0 dBm
  transmit power, across payload sizes;
* ``traffic_mix`` — heterogeneous workloads: every registered traffic
  model (saturated, periodic, poisson, bursty, mixed) across offered-load
  scales, opening the axis the paper's one-packet-per-superframe
  assumption keeps fixed;
* ``topology_depth`` — the multi-hop axis: grid-placed nodes routed over
  a sink tree at increasing hop-depth caps, measuring how forwarding
  load concentrates on the first-hop relays (the energy hole) as the
  tree deepens;
* ``case_study_power_grid`` — the exhaustive BO/SO grid that doubles as
  the reference baseline of the catalogue's *optimizer* entries.

The catalogue also registers adaptive searches
(:class:`repro.sweep.spec.OptimizeSpec`, run with
``python -m repro sweep optimize <name>``), each built from its reference
sweep's axes, base parameters and objectives plus a budget, so it cannot
drift from the grid it is judged against: ``case_study_power`` searches
the BO/SO grid of ``case_study_power_grid`` with half the evaluation
budget and must find a knee point that matches or dominates the grid's.

Every sweep has a *quick* variant (``get_sweep(name, quick=True)``) that
shrinks the population, channel count and horizon so CI can smoke the whole
pipeline — expansion, cache-resume, Pareto analysis, export — in seconds.
The quick variant is a different spec (different base parameters), so its
manifest hash differs from the full run's; each variant's hash is stable
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

from repro.runner.params import ReadableKeyError, did_you_mean
from repro.sweep.spec import GridAxis, OptimizeSpec, SweepSpec

#: Objectives of the paper's trade-off story, shared by every headline
#: sweep: average node power (uW), transaction failure probability, and
#: mean in-superframe delivery delay — all minimised.
TRADEOFF_OBJECTIVES = {
    "mean_power_uw": "min",
    "failure_probability": "min",
    "mean_delivery_delay_s": "min",
}


class UnknownSweepError(ReadableKeyError):
    """Raised when a sweep (or, with ``kind="optimizer"``, an optimizer)
    name is not in the catalogue."""

    def __init__(self, name: str, known: Tuple[str, ...],
                 kind: str = "sweep"):
        self.name = name
        self.known = known
        super().__init__(f"Unknown {kind} {name!r}. Registered {kind}s: "
                         f"{', '.join(known) or '(none)'}."
                         + did_you_mean(name, known))


@dataclass(frozen=True)
class SweepDefinition:
    """One named entry of the catalogue: a sweep, or an optimizer over the
    grid of its ``reference_sweep``."""

    name: str
    title: str
    builder: Callable[[bool], SweepSpec]
    reference_sweep: Optional[str] = None

    def build(self, quick: bool = False) -> SweepSpec:
        """The concrete spec (full-scale, or the quick CI variant)."""
        return self.builder(quick)


def _node_density(quick: bool) -> SweepSpec:
    if quick:
        axes = {"total_nodes": GridAxis((16, 32, 64))}
        base = {"num_channels": 2, "superframes": 4}
    else:
        axes = {"total_nodes": GridAxis((400, 800, 1600, 2400, 3200))}
        base = {}
    return SweepSpec(
        name="node_density", experiment="case_study_full", axes=axes,
        base_params=base, objectives=TRADEOFF_OBJECTIVES,
        title="Energy / reliability / latency vs node density "
              "(full-scale packet-level simulation)")


def _duty_cycle(quick: bool) -> SweepSpec:
    if quick:
        axes = {"beacon_order": GridAxis((3, 4, 5)),
                "superframe_order": GridAxis((None, 3))}
        base = {"total_nodes": 32, "num_channels": 2, "superframes": 6}
    else:
        axes = {"beacon_order": GridAxis((3, 4, 5, 6, 7)),
                "superframe_order": GridAxis((None, 3))}
        base = {}
    return SweepSpec(
        name="duty_cycle", experiment="case_study_full", axes=axes,
        base_params=base, objectives=TRADEOFF_OBJECTIVES,
        title="BO/SO duty-cycle structure: full-active (SO = BO) vs "
              "duty-cycled CAP (SO = 3) across beacon orders")


def _tx_policy(quick: bool) -> SweepSpec:
    if quick:
        axes = {"tx_policy": GridAxis(("adaptive", "fixed"))}
        base = {"total_nodes": 32, "num_channels": 2, "superframes": 4}
    else:
        axes = {"tx_policy": GridAxis(("adaptive", "fixed")),
                "payload_bytes": GridAxis((50, 120))}
        base = {}
    return SweepSpec(
        name="tx_policy", experiment="case_study_full", axes=axes,
        base_params=base, objectives=TRADEOFF_OBJECTIVES,
        title="Channel-inversion link adaptation vs fixed 0 dBm transmit "
              "power at full scale")


def _traffic_mix(quick: bool) -> SweepSpec:
    if quick:
        # CI smoke: every registered model once, at the scaled-down size.
        axes = {"traffic_model": GridAxis(("saturated", "periodic",
                                           "poisson", "bursty", "mixed"))}
        base = {"total_nodes": 32, "num_channels": 2, "superframes": 4}
    else:
        # Full scale crosses the offered-load scale with the models the
        # scale actually affects; 'saturated' ignores traffic_rate_scale
        # (and the primed periodic source reproduces it at scale 1.0), so
        # including it would recompute identical 1600-node points.
        axes = {"traffic_model": GridAxis(("periodic", "poisson", "bursty",
                                           "mixed")),
                "traffic_rate_scale": GridAxis((0.5, 1.0, 2.0))}
        base = {}
    return SweepSpec(
        name="traffic_mix", experiment="case_study_full", axes=axes,
        base_params=base, objectives=TRADEOFF_OBJECTIVES,
        title="Heterogeneous traffic workloads: every registered traffic "
              "model across offered-load scales at full scale")


def _case_study_power_grid(quick: bool) -> SweepSpec:
    """The exhaustive BO x SO grid the ``case_study_power`` optimizer
    searches and is benchmarked against: every combination, twice the
    optimizer's budget.  ``superframe_order`` stays at or below the
    smallest beacon order — the superframe structure rejects SO > BO."""
    if quick:
        axes = {"beacon_order": GridAxis((3, 4, 5, 6)),
                "superframe_order": GridAxis((None, 2, 3))}
        base = {"total_nodes": 32, "num_channels": 2, "superframes": 4}
    else:
        axes = {"beacon_order": GridAxis((3, 4, 5, 6, 7, 8)),
                "superframe_order": GridAxis((None, 2, 3))}
        base = {}
    return SweepSpec(
        name="case_study_power_grid", experiment="case_study_full",
        axes=axes, base_params=base, objectives=TRADEOFF_OBJECTIVES,
        title="Exhaustive BO/SO reference grid of the case_study_power "
              "optimizer (power/delay/reliability trade-off)")


def _topology_depth(quick: bool) -> SweepSpec:
    if quick:
        # CI smoke: one grid channel, 32 nodes (the 12 m lattice puts 8 in
        # ring 1, 16 in ring 2, 8 in ring 3 — so every hop cap below is a
        # distinct tree), periodic traffic so forwarding load matters.
        axes = {"max_hops": GridAxis((1, 2, 3))}
        base = {"topology": "grid", "total_nodes": 32, "num_channels": 1,
                "superframes": 4, "traffic_model": "periodic",
                "traffic_rate_scale": 0.5}
    else:
        axes = {"max_hops": GridAxis((1, 2, 3, 4)),
                "traffic_model": GridAxis(("periodic", "poisson", "bursty"))}
        base = {"topology": "grid"}
    return SweepSpec(
        name="topology_depth", experiment="case_study_full", axes=axes,
        base_params=base, objectives=TRADEOFF_OBJECTIVES,
        title="Sink-tree hop-depth cap over the grid topology: energy-hole "
              "formation vs routing depth")


_DEFINITIONS: Dict[str, SweepDefinition] = {
    definition.name: definition for definition in (
        SweepDefinition("node_density",
                        "node-density sweep of the full-scale case study",
                        _node_density),
        SweepDefinition("duty_cycle",
                        "BO/SO duty-cycle sweep of the full-scale case study",
                        _duty_cycle),
        SweepDefinition("tx_policy",
                        "adaptive-vs-fixed TX-power sweep at full scale",
                        _tx_policy),
        SweepDefinition("traffic_mix",
                        "heterogeneous-traffic sweep of the full-scale "
                        "case study",
                        _traffic_mix),
        SweepDefinition("topology_depth",
                        "multi-hop sink-tree depth sweep over the grid "
                        "topology",
                        _topology_depth),
        SweepDefinition("case_study_power_grid",
                        "exhaustive BO/SO reference grid of the "
                        "case_study_power optimizer",
                        _case_study_power_grid),
    )
}


def _case_study_power(quick: bool) -> OptimizeSpec:
    """Adaptive BO/SO search of the case study's power/delay trade-off.

    Searches the ``case_study_power_grid`` reference sweep's grid — its
    axes, base parameters, objectives and seed — with *half* its
    evaluation budget; the acceptance bar (pinned in the tests) is that
    the optimizer's knee point matches or dominates the exhaustive grid's
    knee.
    """
    grid = _case_study_power_grid(quick)
    budget = ({"max_points": 6, "initial_points": 4} if quick
              else {"max_points": 9, "initial_points": 5})
    return OptimizeSpec(
        name="case_study_power", experiment=grid.experiment, axes=grid.axes,
        base_params=grid.base_params, seed=grid.seed,
        objectives=grid.objectives, batch_size=2, patience=2, **budget,
        title="Adaptive BO/SO search of the power/delay/reliability "
              "trade-off at half the reference grid's budget")


_OPTIMIZE_DEFINITIONS: Dict[str, SweepDefinition] = {
    definition.name: definition for definition in (
        SweepDefinition("case_study_power",
                        "adaptive BO/SO power-trade-off search "
                        "(half the reference grid's budget)",
                        _case_study_power,
                        reference_sweep="case_study_power_grid"),
    )
}


def _lookup(table: Mapping[str, SweepDefinition], name: str,
            kind: str) -> SweepDefinition:
    try:
        return table[name]
    except KeyError:
        raise UnknownSweepError(name, tuple(sorted(table)), kind) from None


def optimize_names() -> Tuple[str, ...]:
    """All registered optimizer names, sorted."""
    return tuple(sorted(_OPTIMIZE_DEFINITIONS))


def iter_optimize_definitions() -> Iterator[SweepDefinition]:
    """The optimizer catalogue entries, in name order."""
    for name in optimize_names():
        yield _OPTIMIZE_DEFINITIONS[name]


def get_optimize_definition(name: str) -> SweepDefinition:
    """The optimizer entry for ``name`` (with close-match suggestions)."""
    return _lookup(_OPTIMIZE_DEFINITIONS, name, "optimizer")


def get_optimize(name: str, quick: bool = False) -> OptimizeSpec:
    """Build the named optimizer's spec (quick CI variant on request)."""
    return get_optimize_definition(name).build(quick)


def sweep_names() -> Tuple[str, ...]:
    """All registered sweep names, sorted."""
    return tuple(sorted(_DEFINITIONS))


def iter_definitions() -> Iterator[SweepDefinition]:
    """The catalogue entries, in name order."""
    for name in sweep_names():
        yield _DEFINITIONS[name]


def get_definition(name: str) -> SweepDefinition:
    """The catalogue entry for ``name`` (with close-match suggestions)."""
    return _lookup(_DEFINITIONS, name, "sweep")


def get_sweep(name: str, quick: bool = False) -> SweepSpec:
    """Build the named sweep's spec (quick CI variant on request)."""
    return get_definition(name).build(quick)
