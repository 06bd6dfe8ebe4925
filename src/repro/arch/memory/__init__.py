"""The L1 memory models the engine drives (Section 3.4, Fig. 9).

* :class:`~repro.arch.memory.cache.StreamingCache` — a read-only
  set-associative cache absorbing the (potentially irregular) accesses of the
  streaming matrix.
* :class:`~repro.arch.memory.dram.DramModel` — the off-chip HBM model that
  every structure ultimately fills from / drains to.

The stationary FIFO and the PSRAM have no object of their own: the engine
charges stationary fills as DRAM reads and models PSRAM occupancy and spills
with block arithmetic over the partial-fiber lengths.
"""

from repro.arch.memory.dram import DramModel, DramTrafficCounter
from repro.arch.memory.cache import CacheStats, StreamingCache

__all__ = [
    "DramModel",
    "DramTrafficCounter",
    "StreamingCache",
    "CacheStats",
]
