#!/usr/bin/env python
"""Quickstart: evaluate the average power of one 802.15.4 sensor node.

This example walks the public API end to end:

1. build the analytical energy model (CC2420 profile + the paper's
   energy-aware activation policy, driven by the Monte-Carlo contention
   characterisation);
2. evaluate a single operating point — the paper's case-study parameters
   for one node at a mid-range path loss;
3. print the per-phase energy split and the headline quantities.

Run with::

    python examples/quickstart.py

Every paper figure is also one `Session.run` away through the stable
library façade (`repro.api`), or one command away on the CLI
(`python -m repro list` prints the catalogue)::

    python -m repro run fig6_csma --jobs 2
    python -m repro run case_study
"""

from __future__ import annotations

import repro.api as api
from repro.analysis.tables import format_table
from repro.contention import build_contention_table
from repro.core import EnergyModel


def main() -> None:
    # ---- 1. contention characterisation (Figure 6 machinery) --------------------
    # build_contention_table() characterises the paper grid by Monte-Carlo
    # (the same table `repro run case_study` reads) and the analytical model
    # interpolates it.
    model = EnergyModel(contention_source=build_contention_table())
    budget = model.evaluate(
        payload_bytes=120,      # buffered sensor readings (the paper's choice)
        tx_power_dbm=-10.0,     # a mid-range CC2420 power level
        path_loss_db=72.0,      # node-to-base-station attenuation
        load=0.42,              # ~100 nodes sharing the channel
        beacon_order=6,         # 983 ms inter-beacon period
    )

    # ---- 3. report -----------------------------------------------------------------
    print("Per-superframe radio budget")
    print(format_table(
        ["quantity", "value"],
        [
            ["average power [uW]", budget.average_power_w * 1e6],
            ["transaction failure probability", budget.transaction_failure_probability],
            ["delivery delay [s]", budget.delivery_delay_s],
            ["energy per data bit [nJ]", budget.energy_per_bit_j * 1e9],
            ["expected transmissions per packet",
             budget.attempt_distribution.expected_transmissions],
            ["inter-beacon period [s]", budget.inter_beacon_period_s],
        ],
    ))
    print()
    print(format_table(
        ["protocol phase", "energy [uJ]", "time [ms]"],
        [[phase,
          budget.energy_by_phase_j[phase] * 1e6,
          budget.time_by_phase_s[phase] * 1e3]
         for phase in ("beacon", "contention", "transmit", "ackifs", "sleep")],
        title="Energy / time per protocol phase (one superframe)",
    ))
    print()
    shares = {state.value: fraction
              for state, fraction in zip(budget.time_by_state().keys(),
                                         budget.time_by_state().values())}
    total = sum(shares.values())
    print(format_table(
        ["radio state", "time share [%]"],
        [[name, 100.0 * value / total] for name, value in shares.items()],
        title="Radio state occupancy",
    ))
    print()

    # ---- 4. the stable library façade -----------------------------------------------
    # repro.api.Session is the documented entry point: the same registry and
    # result cache the CLI uses, with typed parameter validation.  A second
    # call with the same parameters and seed is served from the cache.
    session = api.Session()
    result = session.run("fig3_radio")
    print(f"Engine check — {result.spec.title}: {len(result.rows)} "
          f"comparisons, "
          f"{'cache hit' if result.cache_hit else 'computed'} "
          f"in {result.elapsed_s:.3f} s")
    # RunResult carries typed accessors and provenance:
    print(f"  within tolerance: "
          f"{sum(bool(v) for v in result.column('within_tolerance'))}"
          f"/{len(result.rows)}  (key {result.cache_key[:12]}, "
          f"code {result.code_version})")


if __name__ == "__main__":
    main()
