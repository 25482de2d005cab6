#!/usr/bin/env python
"""The paper's Section 5 case study: 1600 nodes, 16 channels, 211 µW target.

Reproduces the dense-network scenario end to end:

* 1600 nodes split over the sixteen 2450 MHz channels (100 per channel);
* every node senses 1 byte / 8 ms and buffers 120-byte packets;
* beacon order 6 (983 ms superframes, ~42 % channel load);
* path losses uniform between 55 and 95 dB with channel-inversion link
  adaptation;
* reports the average power, delivery delay, failure probability, the
  Figure 9 breakdowns and the improvement perspectives.

The headline comparison goes through the experiment engine (equivalent
CLI: ``python -m repro run case_study``), so a re-run is served from the
result cache.  The breakdowns and thresholds then use the library API
directly on ``build_contention_table()``, the same characterisation the
engine reads; they average over 61 path-loss points instead of the
engine's 41, which is the only reason their numbers differ slightly from
the headline row.

Run with::

    python examples/dense_network_case_study.py
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.contention import build_contention_table
from repro.core import CaseStudy, CaseStudyParameters, EnergyModel
from repro.network import ScenarioSpec
from repro.runner import run_experiment


def main() -> None:
    model = EnergyModel(contention_source=build_contention_table())
    parameters = CaseStudyParameters()          # the paper's values
    study = CaseStudy(model=model, parameters=parameters,
                      path_loss_resolution=61)

    # ---- scenario sanity: the network view -----------------------------------------
    populations = {channel: len(nodes) for channel, (nodes, _)
                   in ScenarioSpec().population(seed=1).items()}
    print(f"Population: {sum(populations.values())} nodes over "
          f"{len(populations)} channels ({min(populations.values())}-"
          f"{max(populations.values())} per channel)")
    print(f"Per-channel offered load: {study.channel_load():.3f}")
    print(f"Packet accumulation period: "
          f"{parameters.packet_accumulation_period_s * 1e3:.0f} ms")
    print()

    # ---- analytical case study (through the experiment engine) -----------------------
    engine_run = run_experiment("case_study")
    print(format_table(
        ["quantity", "paper", "reproduced"],
        [[row["quantity"], row["paper_value"] or "-", row["measured_value"]]
         for row in engine_run.rows],
        title="Case study headline numbers "
              f"({'cache hit' if engine_run.cache_hit else 'computed'} "
              f"in {engine_run.elapsed_s:.2f} s)",
    ))
    print()
    result = study.run(link_adaptation=True)
    print(format_table(
        ["phase", "energy share [%]"],
        [[phase, 100.0 * share]
         for phase, share in result.energy_breakdown.fractions.items()],
        title="Energy breakdown (Figure 9a)",
    ))
    print()
    print(format_table(
        ["state", "time share [%]"],
        [[state.value, 100.0 * share]
         for state, share in result.time_breakdown.fractions.items()],
        title="Time breakdown (Figure 9b)",
    ))
    print()
    print(format_table(
        ["threshold [dB]", "switch to [dBm]"],
        [[t.path_loss_db, t.upper_level_dbm] for t in result.thresholds],
        title="Link-adaptation switching thresholds",
    ))
    print()

    # ---- improvement perspectives -------------------------------------------------------
    improvements = study.improvements()
    print(format_table(
        ["variant", "average power [uW]", "saving [%]"],
        [[r.name, r.average_power_w * 1e6, 100.0 * r.relative_saving]
         for r in improvements],
        title="Improvement perspectives (paper: -12 % transitions, -15 % scalable RX)",
    ))


if __name__ == "__main__":
    main()
