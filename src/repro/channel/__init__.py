"""Propagation / channel models.

The paper's analysis needs three channel abstractions:

* a **path-loss model** mapping node placement to attenuation — the case
  study assumes path losses uniformly distributed between 55 and 95 dB and
  all nodes within range at 0 dBm (:mod:`repro.channel.pathloss`);
* an **AWGN link** whose bit-error rate depends only on the received power
  (valid under slow fading, i.e. while the channel stays coherent over a
  packet) (:mod:`repro.channel.awgn`);
* the **wired attenuator test bench** used to measure the BER curve of
  Figure 4, reproduced here as a chip-level Monte-Carlo link simulator
  (:mod:`repro.channel.wired`).

The names resolve on first access.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.channel.awgn": ("AwgnLink",),
    "repro.channel.pathloss": ("FreeSpacePathLoss", "LogDistancePathLoss",
                               "PathLossDistribution",
                               "UniformPathLossDistribution"),
    "repro.channel.wired": ("WiredTestBench",),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
