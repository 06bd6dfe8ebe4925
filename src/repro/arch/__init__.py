"""Flexagon's on-chip hardware parameters and the models the engine drives.

All five hardware pieces of Fig. 3a — the distribution network, the
multiplier array, the Merger-Reduction Network, the 3-tier L1 and the memory
controllers — are modelled once, by
:class:`repro.accelerators.engine.SpmspmEngine`, through bandwidth bounds,
the streaming cache and PSRAM block arithmetic.  This subpackage holds what
that engine is built from:

* :mod:`repro.arch.config` — the accelerator configuration (Table 5).
* :mod:`repro.arch.memory` — the streaming cache and the DRAM model.
* :mod:`repro.arch.controllers` — the streaming-operand tile reader.
* :mod:`repro.arch.mrn` — the Merger-Reduction Network: the closed-form
  ``merge_cycles``/``reduction_cycles`` and a tick-level micro-simulator
  that the tests use as the oracle of that closed form (import it from
  :mod:`repro.arch.mrn` directly; nothing at runtime loads it).
"""

from repro.arch.config import AcceleratorConfig, default_config

__all__ = [
    "AcceleratorConfig",
    "default_config",
]
