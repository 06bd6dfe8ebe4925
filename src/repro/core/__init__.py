"""The paper's primary contribution, assembled: the per-layer dataflow mapper.

* :mod:`repro.core.mapper` — the offline dataflow analysis of Fig. 3b
  (phase 1): decide, per layer, which of the six dataflows to configure.

Layers run one at a time on the engine; inter-layer format transitions are
the Table 4 reproduction in :mod:`repro.dataflows.transitions`.
"""

from repro.core.mapper import HeuristicMapper, OracleMapper

__all__ = [
    "HeuristicMapper",
    "OracleMapper",
]
