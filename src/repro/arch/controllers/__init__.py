"""Memory controllers (Section 3.5, Fig. 11).

Flexagon replaces one controller per (dataflow, memory structure) pair with
five configurable ones: a tile filler and a tile reader per input operand and
a tile writer for matrix C.  Only the streaming-operand tile reader is an
object here, because its cache behaviour is data-dependent; the engine
packs stationary batches and charges output writes with plain arithmetic.
"""

from repro.arch.controllers.streaming import StreamingTileReader

__all__ = [
    "StreamingTileReader",
]
