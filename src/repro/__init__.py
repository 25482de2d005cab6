"""repro — reproduction of "Energy Efficiency of the IEEE 802.15.4 Standard
in Dense Wireless Microsensor Networks: Modeling and Improvement
Perspectives" (Bougard, Daly, Dehaene, Catthoor, Chandrakasan — DATE 2005).

The library is organised bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel, random streams and
  monitors (substrate);
* :mod:`repro.phy` — IEEE 802.15.4 2450 MHz physical layer model;
* :mod:`repro.radio` — CC2420 transceiver model (states, power, transitions);
* :mod:`repro.channel` — path loss, AWGN links, wired test bench;
* :mod:`repro.mac` — beacon-enabled MAC: superframes, frames, slotted
  CSMA/CA, and the two uplink kernels — the event kernel
  (device/coordinator entities, the per-device-timeline oracle) and the
  batched lockstep kernel;
* :mod:`repro.contention` — Monte-Carlo characterisation of the contention
  procedure (T_cont, N_CCA, Pr_col, Pr_cf);
* :mod:`repro.network` — topology, traffic, channel allocation, scenarios;
* :mod:`repro.core` — the paper's analytical energy/reliability model,
  link adaptation, packet-size optimisation, breakdowns, improvements and
  the dense-network case study;
* :mod:`repro.analysis` — tables, series, sweeps and reports;
* :mod:`repro.experiments` — one driver per figure/table of the paper;
* :mod:`repro.runner` — the experiment engine: registry, executors on
  the forked worker pool and a content-addressed result cache behind the
  ``python -m repro`` CLI;
* :mod:`repro.sweep` — design-space exploration over registered
  experiments: declarative axes, cache-resuming sweep driver, Pareto
  analysis and byte-reproducible artifact exports
  (``python -m repro sweep``);
* :mod:`repro.api` — the stable library façade: a configured
  :class:`~repro.api.Session` exposing ``run``/``sweep``/``experiments``
  and the session cache — the documented entry point for library users.

Quick start
-----------

>>> from repro.core import EnergyModel, CaseStudy
>>> model = EnergyModel()                      # CC2420 + paper's policy
>>> result = CaseStudy(model=model).run()      # Section 5 scenario
>>> round(result.average_power_w * 1e6)        # ~211 uW in the paper
217

through the stable façade (typed parameters, cached results)::

    import repro.api as api
    session = api.Session()
    result = session.run("case_study")         # -> RunResult

or through the command line::

    $ python -m repro run case_study

The exports below resolve on first access, so ``import repro`` — which
every ``import repro.<module>`` runs first — loads neither the model nor
numpy.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.core.energy_model": ("EnergyModel", "ModelConfig",
                                "NodeEnergyBudget"),
    "repro.core.case_study": ("CaseStudy", "CaseStudyParameters",
                              "CaseStudyResult"),
    "repro.core.link_adaptation": ("ChannelInversionPolicy",),
    "repro.radio.power_profile": ("CC2420_PROFILE",),
    "repro.radio.states": ("RadioState",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]
__all__.append("__version__")

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
