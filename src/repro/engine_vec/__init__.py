"""Vectorized SpMSpM engine backend.

This package is the second execution backend of
:class:`repro.accelerators.engine.SpmspmEngine`.  The reference backend walks
the element streams of a dataflow one batch at a time in Python and drives a
per-line set-associative cache model; the vectorized backend computes the
same quantities with NumPy array kernels over the zero-copy CSR/CSC storage
views (``pointers`` / ``indices`` / ``values``) of
:class:`~repro.sparse.formats.CompressedMatrix`, never materialising
``Fiber`` / ``Element`` objects.

Fidelity contract
-----------------
The backend is **bit-equivalent** to the reference engine: for any operand
pair, dataflow and configuration, the resulting
:class:`~repro.metrics.results.LayerSimResult` — cycles (including the exact
floating-point accumulation), traffic breakdowns, cache access/hit/miss
counts, DRAM counters and PSRAM statistics — is *equal*, not merely close.
That holds because nothing is approximated:

* **Operation counts** (multiplications, merge inputs, union/output sizes)
  are exact integers computed with vectorized prefix sums and grouped
  distinct-coordinate counts instead of per-element walks.
* **Cache behaviour** is computed by an *offline but exact* LRU model
  (:mod:`repro.engine_vec.cache_model`): the full line-address trace of a
  layer is expanded from the fiber spans, and per-access hits are derived
  from LRU stack distances (a batched per-set reuse-distance computation),
  which provably reproduces the per-line walk of
  :class:`~repro.arch.memory.cache.StreamingCache`.
* **Cycle accumulation order** is preserved: per-batch cycle terms are
  computed as float64 arrays with the same expression shapes and then summed
  in the reference's iteration order, so the floating-point results are
  identical bit for bit.
* The **merging-phase model** (partial-fiber merge trees) is computed
  analytically from fiber lengths: the reference folds each output row
  pass by pass, the vectorized twin evaluates the same fold in closed form,
  and the equivalence suite checks the twin against the walk.

Shared structure
----------------
Much of a trial's work depends only on the operands and a few geometry
fields, not on the dataflow or the rest of the design point.  The backend
computes each such piece once per live operand pair and reuses it across
dataflows, design points and mirrored trials, through the per-instance memo
of :func:`repro.sparse.formats.cached_derived` (entries die with their
operands):

* the per-touch **streaming-cache misses** of an Outer-Product or Gustavson
  trace, per (stationary view, streaming view) pair, keyed by the trace kind
  (plus P for Outer Product, whose batch boundaries re-touch fibers) and the
  cache geometry (sets, ways, line bytes, element bytes); the cache
  counters are credited from the memoized array on every run;
* the **Gustavson chunk unions**, per (A CSR, B CSR) pair and P;
* C's **row and column counts**, from one structure-only pass per operand
  pair; the mirrored run of an N-stationary dataflow (``b.T x a.T``) reads
  the column counts;
* **layout views**: a transposed view converts through its base, so the
  mirrored trials reuse the M-stationary trials' conversions.

Every memoized value is a function of its key, so results stay
bit-identical and job keys do not change.  The LRU model itself skips
accesses that repeat the line just touched (in program order and per set):
they are MRU hits that leave the LRU state unchanged.

Selection
---------
The backend is chosen via ``ExperimentSettings.engine``, the
``REPRO_ENGINE`` environment variable or ``python -m repro --engine``
(default: ``vectorized``; ``reference`` is kept for auditing).  The runtime's
job cache keys deliberately do *not* include the backend — both backends
must produce identical results (enforced by ``tests/test_engine_equivalence``),
so cached results are shared between them.
"""

from __future__ import annotations

from repro import knobs

#: The available engine backends, in preference order.
ENGINE_BACKENDS = ("vectorized", "reference")

#: Backend used when neither the caller nor the environment chooses one.
DEFAULT_ENGINE_BACKEND = "vectorized"


def validate_engine_backend(name: str) -> str:
    """Check that ``name`` is a known backend; return it unchanged."""
    if name not in ENGINE_BACKENDS:
        raise ValueError(
            f"unknown engine backend {name!r}; expected one of {ENGINE_BACKENDS}"
        )
    return name


def resolve_engine_backend(name: str | None = None) -> str:
    """Resolve an engine-backend choice to a validated backend name.

    ``None`` falls back to the ``REPRO_ENGINE`` environment variable and then
    to :data:`DEFAULT_ENGINE_BACKEND`.
    """
    return validate_engine_backend(
        name or knobs.get("REPRO_ENGINE") or DEFAULT_ENGINE_BACKEND
    )


__all__ = [
    "ENGINE_BACKENDS",
    "DEFAULT_ENGINE_BACKEND",
    "resolve_engine_backend",
    "validate_engine_backend",
]
