#!/usr/bin/env python
"""Link adaptation study: transmit-power thresholds and energy per bit (Figure 7).

Computes, for 120-byte packets at several network loads:

* the energy per bit as a function of the path loss when each node picks the
  energy-optimal CC2420 power level (channel inversion),
* the switching thresholds between adjacent levels, and
* the saving relative to always transmitting at 0 dBm.

The energy-per-bit curves come from the engine's ``fig7_link`` experiment
(equivalent CLI: ``python -m repro run fig7_link --jobs 2``); the switching
thresholds and savings then use the policy API directly.

Run with::

    python examples/link_adaptation_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.contention import build_contention_table
from repro.core import EnergyModel
from repro.core.link_adaptation import ChannelInversionPolicy
from repro.runner import run_experiment


def main() -> None:
    model = EnergyModel(contention_source=build_contention_table())
    loads = (0.2, 0.42, 0.6)
    grid = np.arange(50.0, 95.0, 5.0)

    # ---- energy-per-bit curves (through the experiment engine) ------------------------
    engine_run = run_experiment("fig7_link", params={"loads": list(loads)})
    by_series = {}
    for row in engine_run.rows:
        by_series.setdefault(row["series"], []).append(row)
    rows = []
    for label, series_rows in by_series.items():
        xs = np.array([row["x"] for row in series_rows])
        for target in grid:  # nearest engine grid point to each display point
            row = series_rows[int(np.argmin(np.abs(xs - target)))]
            rows.append([label, row["x"], row["y"] * 1e9])
    print(format_table(
        ["load", "path loss [dB]", "energy/bit [nJ]"],
        rows, title="Figure 7: optimal energy per bit "
                    f"({'cache hit' if engine_run.cache_hit else 'computed'} "
                    f"in {engine_run.elapsed_s:.2f} s)"))
    print()
    policies = {load: ChannelInversionPolicy(model, payload_bytes=120, load=load)
                for load in loads}

    # ---- thresholds ---------------------------------------------------------------------
    for load, policy in policies.items():
        thresholds = policy.compute_thresholds()
        print(format_table(
            ["path loss threshold [dB]", "from [dBm]", "to [dBm]"],
            [[t.path_loss_db, t.lower_level_dbm, t.upper_level_dbm]
             for t in thresholds],
            title=f"Switching thresholds at load {load:g} "
                  f"(paper: thresholds are load independent)"))
        print()

    # ---- savings ------------------------------------------------------------------------
    policy = policies[0.42]
    rows = []
    for path_loss in (55.0, 65.0, 75.0, 85.0):
        adapted = policy.evaluate_adapted(path_loss).energy_per_bit_j
        fixed = model.evaluate(payload_bytes=120, tx_power_dbm=0.0,
                               path_loss_db=path_loss, load=0.42).energy_per_bit_j
        rows.append([path_loss, adapted * 1e9, fixed * 1e9,
                     100.0 * (1.0 - adapted / fixed)])
    print(format_table(
        ["path loss [dB]", "adapted [nJ/bit]", "fixed 0 dBm [nJ/bit]", "saving [%]"],
        rows, title="Saving of channel inversion vs fixed maximum power "
                    "(paper: up to 40 %)"))


if __name__ == "__main__":
    main()
