"""Bit-equivalence of the vectorized engine backend against the reference.

The vectorized backend (:mod:`repro.engine_vec`) promises *equality*, not
approximation: for any operands, dataflow and configuration, the full
:class:`LayerSimResult` — exact float cycle sums, traffic, cache and DRAM
counters — must match the reference walk, and cached results must be
shareable between backends (backend-agnostic job keys).  This suite sweeps
randomized sparsities/shapes/seeds across all six dataflows and several
cache geometries (including degenerate single-set caches), cross-checks the
batched LRU model against the per-line reference cache, and pins the
backend-selection plumbing (settings, env, CLI, job keys).
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accelerators.engine import SpmspmEngine, _pack_whole_fibers
from repro.arch.config import default_config
from repro.arch.memory.cache import StreamingCache
from repro.dataflows.base import Dataflow
from repro.engine_vec import ENGINE_BACKENDS, resolve_engine_backend
from repro.engine_vec.cache_model import lru_hits
from repro.engine_vec import kernels
from repro.runtime import BatchRunner, ResultCache, SimJob
from repro.sparse.formats import CompressedMatrix, Layout, csr_from_dense
from repro.sparse.generate import SparsityPattern, random_sparse
from repro.sparse.reference import spgemm_reference

# ----------------------------------------------------------------------
# Property-style sweep: random layers x dataflows x geometries
# ----------------------------------------------------------------------
#: Cache/datapath geometries, including the degenerate shapes the scaling
#: policy produces (tiny single-set caches, narrow datapaths).
CONFIGS = [
    default_config(),
    default_config(
        num_multipliers=8,
        str_cache_bytes=2048,  # 16 lines, 16-way => a single set
        psram_bytes=2048,
    ),
    default_config(
        num_multipliers=16,
        distribution_bandwidth=4,
        reduction_bandwidth=4,
        str_cache_bytes=4096,
        str_cache_line_bytes=64,
        str_cache_associativity=4,
        psram_bytes=4096,
        psram_block_bytes=64,
    ),
    # One- and two-multiplier datapaths: the merge tree has two leaves, so
    # every output row with three or more partial fibers folds in several
    # passes, and nearly every stationary fiber is longer than the array.
    default_config(
        num_multipliers=1,
        distribution_bandwidth=1,
        reduction_bandwidth=1,
        str_cache_bytes=4096,  # 32 lines, 16-way => two sets
        psram_bytes=1024,
    ),
    default_config(
        num_multipliers=2,
        distribution_bandwidth=2,
        reduction_bandwidth=2,
        psram_bytes=2048,
    ),
]

#: (m, k, n, density_a, density_b, pattern, seed) grid; chosen to cover
#: empty operands, fibers longer than the array, PSRAM spills and both
#: fits/thrashes cache regimes.
LAYER_CASES = [
    (1, 1, 1, 1.0, 1.0, SparsityPattern.UNIFORM, 0),
    (5, 7, 3, 0.0, 0.5, SparsityPattern.UNIFORM, 1),
    (16, 16, 16, 0.3, 0.3, SparsityPattern.UNIFORM, 2),
    (40, 64, 24, 0.12, 0.4, SparsityPattern.ROW_SKEWED, 3),
    (64, 48, 64, 0.5, 0.08, SparsityPattern.BANDED, 4),
    (30, 200, 20, 0.25, 0.25, SparsityPattern.UNIFORM, 5),
    (128, 32, 96, 0.06, 0.6, SparsityPattern.BLOCK, 6),
    (80, 80, 80, 0.45, 0.45, SparsityPattern.UNIFORM, 7),
    # Mostly empty rows of B: many partial fibers have zero length.
    (24, 40, 32, 0.35, 0.04, SparsityPattern.UNIFORM, 8),
]


def _make_pair(case):
    m, k, n, da, db, pattern, seed = case
    a = random_sparse(m, k, da, pattern=pattern, seed=seed)
    b = random_sparse(k, n, db, pattern=pattern, seed=seed + 1000)
    return a, b


def _assert_results_equal(reference, vectorized, context):
    __tracebackhide__ = True
    assert reference.cycles == vectorized.cycles, context
    assert reference.traffic == vectorized.traffic, context
    assert reference.stats == vectorized.stats, context
    assert reference.dram == vectorized.dram, context
    assert reference.str_cache_accesses == vectorized.str_cache_accesses, context
    assert reference.str_cache_miss_rate == vectorized.str_cache_miss_rate, context
    assert reference == vectorized, context


@pytest.mark.parametrize("case", LAYER_CASES, ids=lambda c: f"{c[0]}x{c[1]}x{c[2]}s{c[6]}")
def test_backends_bit_equal_across_dataflows_and_geometries(case):
    a, b = _make_pair(case)
    for config in CONFIGS:
        reference = SpmspmEngine(config, backend="reference")
        vectorized = SpmspmEngine(config, backend="vectorized")
        for dataflow in Dataflow:
            r = reference.run_layer(dataflow, a, b)
            v = vectorized.run_layer(dataflow, a, b)
            _assert_results_equal(r, v, (dataflow, config.num_multipliers))


def test_layer_cases_include_zero_length_partial_fibers():
    """Some A non-zero meets an empty row of B (a zero-length partial fiber)."""
    a, b = _make_pair(LAYER_CASES[-1])
    b_row_nnz = np.diff(b.with_layout(Layout.CSR).pointers)
    assert np.any(b_row_nnz[a.indices] == 0)
    assert np.any(b_row_nnz[a.indices] > 0)


def test_backends_equal_output_matrix_and_reference_numerics():
    a, b = _make_pair(LAYER_CASES[3])
    golden = spgemm_reference(a, b)
    for dataflow in Dataflow:
        r = SpmspmEngine(CONFIGS[0], backend="reference").run_layer(
            dataflow, a, b, capture_output=True
        )
        v = SpmspmEngine(CONFIGS[0], backend="vectorized").run_layer(
            dataflow, a, b, capture_output=True
        )
        want = golden.with_layout(v.output.layout)
        assert v.output == r.output
        assert v.output.shape == want.shape
        assert np.array_equal(v.output.pointers, want.pointers)
        assert np.array_equal(v.output.indices, want.indices)
        assert np.allclose(v.output.values, want.values)


def test_vectorized_handles_empty_operands():
    a = csr_from_dense(np.zeros((4, 6)))
    b = csr_from_dense(np.zeros((6, 5)))
    for dataflow in Dataflow:
        r = SpmspmEngine(CONFIGS[0], backend="reference").run_layer(dataflow, a, b)
        v = SpmspmEngine(CONFIGS[0], backend="vectorized").run_layer(dataflow, a, b)
        _assert_results_equal(r, v, dataflow)
        assert v.total_cycles == r.total_cycles


# ----------------------------------------------------------------------
# The array twins of the packing and merge helpers
# ----------------------------------------------------------------------
def _matrix_with_fiber_sizes(sizes):
    """A CSR matrix whose rows hold ``sizes`` elements each."""
    pointers = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    indices = np.concatenate([np.arange(n) for n in sizes] + [np.zeros(0, np.int64)])
    return CompressedMatrix(
        len(sizes), max(sizes, default=0) + 1, Layout.CSR,
        pointers, indices, np.ones(len(indices)),
    )


@given(
    sizes=st.lists(st.integers(0, 12), max_size=40),
    num_multipliers=st.integers(1, 8),
)
@example(sizes=[0, 3, 0, 1, 1, 5, 0], num_multipliers=1)
@example(sizes=[2, 2, 9, 0, 1, 4, 4, 17], num_multipliers=4)
@settings(max_examples=200, deadline=None)
def test_array_packing_matches_reference_packing(sizes, num_multipliers):
    matrix = _matrix_with_fiber_sizes(sizes)
    batches = _pack_whole_fibers(matrix, num_multipliers)
    entry_m, entry_s, entry_e, entry_b = kernels.pack_whole_fibers(
        matrix.pointers, num_multipliers
    )
    flat = [
        (m, s, e, b) for b, batch in enumerate(batches) for (m, s, e) in batch
    ]
    assert list(zip(entry_m.tolist(), entry_s.tolist(), entry_e.tolist(),
                    entry_b.tolist())) == flat


@given(
    num_multipliers=st.sampled_from([1, 2, 3, 8]),
    fibers=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9)), max_size=60),
    out_lens=st.lists(st.integers(0, 40), min_size=6, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_merge_twin_matches_reference_walk(num_multipliers, fibers, out_lens):
    """The closed-form merge model against the pending-list walk, directly."""
    config = default_config(
        num_multipliers=num_multipliers, psram_bytes=256, psram_block_bytes=32
    )
    a = random_sparse(6, 4, 0.5, seed=1)
    b = random_sparse(4, 5, 0.5, seed=2)
    rows = np.array([r for r, _ in fibers], dtype=np.int64)
    lens = np.array([n for _, n in fibers], dtype=np.int64)
    contexts = {}
    for backend in ENGINE_BACKENDS:
        engine = SpmspmEngine(config, backend=backend)
        ctx = engine._build_context(Dataflow.OP_M, a, b)
        ctx.c_row_nnz = np.array(out_lens, dtype=np.int64)
        engine._merge_partial_fibers(ctx, rows, lens)
        contexts[backend] = ctx
    vectorized, reference = contexts["vectorized"], contexts["reference"]
    assert vectorized.stats == reference.stats
    assert vectorized.traffic == reference.traffic
    assert vectorized.cycles == reference.cycles
    assert vectorized.dram.traffic == reference.dram.traffic


@given(
    st.lists(st.floats(-1e12, 1e12, allow_nan=False), max_size=50),
    st.floats(-1e6, 1e6, allow_nan=False),
)
@example([1e16, 1.0, -1e16, 1.0], 0.0)
@settings(max_examples=100, deadline=None)
def test_ordered_sum_is_the_sequential_loop(values, initial):
    total = initial
    for value in values:
        total += value
    assert kernels.ordered_sum(np.array(values, dtype=np.float64), initial) == total


# ----------------------------------------------------------------------
# The batched LRU model against the reference per-line cache
# ----------------------------------------------------------------------
def test_batched_lru_matches_streaming_cache_on_random_traces():
    rng = np.random.default_rng(7)
    for _ in range(200):
        num_sets = int(rng.choice([1, 2, 4, 8, 64]))
        ways = int(rng.choice([1, 2, 4, 16]))
        line_bytes = 128
        cache = StreamingCache(num_sets * ways * line_bytes, line_bytes, ways)
        n = int(rng.integers(1, 300))
        lines = rng.integers(0, int(rng.integers(1, 200)), size=n).astype(np.int64)
        walked = np.array([cache.access_byte(int(l) * line_bytes) for l in lines])
        assert np.array_equal(walked, lru_hits(lines, num_sets, ways))


def test_batched_lru_matches_fiber_touch_walk():
    """Span-shaped traces (whole-fiber touches), as the engine produces them."""
    from repro.arch.controllers.streaming import StreamingTileReader
    from repro.engine_vec.cache_model import expand_spans, fiber_line_spans

    rng = np.random.default_rng(11)
    b = random_sparse(64, 96, 0.3, seed=3)
    config = default_config(str_cache_bytes=4096, str_cache_line_bytes=64,
                            str_cache_associativity=4, num_multipliers=8,
                            psram_bytes=2048, psram_block_bytes=64)
    cache = StreamingCache(
        config.str_cache_bytes, config.str_cache_line_bytes,
        config.str_cache_associativity, element_bytes=config.element_bytes,
    )
    reader = StreamingTileReader(b, cache)
    fibers = rng.integers(0, b.major_dim, size=500)
    nnz = np.diff(b.pointers)[fibers]
    active = nnz > 0
    walked = np.array([reader.touch_fiber(int(f)) for f in fibers[active]])

    first, counts = fiber_line_spans(
        b.pointers[fibers[active]], nnz[active],
        config.element_bytes, config.str_cache_line_bytes,
    )
    lines, span_of = expand_spans(first, counts)
    hits = lru_hits(lines, cache.num_sets, config.str_cache_associativity)
    batched = np.bincount(span_of[~hits], minlength=len(first))
    assert np.array_equal(walked, batched)
    # Per-element stats credit: accesses = elements touched, hits fill in.
    assert cache.stats.accesses == int(nnz[active].sum())
    assert cache.stats.misses == int(batched.sum())
    assert cache.stats.miss_bytes == cache.stats.misses * config.str_cache_line_bytes


def test_trace_memory_fallback_is_bit_identical(monkeypatch):
    """Over-budget traces fall back to the per-line walk, same results.

    The second vectorized run answers from the memoized miss array, so the
    walk's cache counters must be credited once per run, not twice.
    """
    monkeypatch.setattr(kernels, "_MAX_TRACE_LINES", 0)
    a, b = _make_pair(LAYER_CASES[3])
    for config in CONFIGS[:2]:
        for dataflow in (Dataflow.OP_M, Dataflow.GUST_M, Dataflow.GUST_N):
            r = SpmspmEngine(config, backend="reference").run_layer(dataflow, a, b)
            vectorized = SpmspmEngine(config, backend="vectorized")
            for run in ("walked", "memoized"):
                v = vectorized.run_layer(dataflow, a, b)
                _assert_results_equal(r, v, ("fallback", run, dataflow))


def test_grouped_union_counts_scipy_and_numpy_paths_agree(monkeypatch):
    if kernels._scipy_sparse is None:
        pytest.skip("scipy not installed: only the NumPy fallback exists here")
    rng = np.random.default_rng(5)
    b = random_sparse(50, 70, 0.2, seed=9)
    ks = np.sort(rng.integers(0, 50, size=200)).astype(np.int64)
    groups = np.sort(rng.integers(0, 12, size=200)).astype(np.int64)
    args = (
        np.asarray(b.indices, dtype=np.int64),
        np.asarray(b.pointers, dtype=np.int64),
        ks, groups, 12, b.ncols,
    )
    fast = kernels.grouped_union_counts(*args)
    fast_both = kernels.grouped_union_counts(*args, with_minor_counts=True)
    monkeypatch.setattr(kernels, "_scipy_sparse", None)
    slow = kernels.grouped_union_counts(*args)
    slow_both = kernels.grouped_union_counts(*args, with_minor_counts=True)
    assert np.array_equal(fast, slow)
    # Against a straightforward per-group set union; the minor counts are
    # how many group unions hold each coordinate.
    expected = np.zeros(12, dtype=np.int64)
    expected_minor = np.zeros(b.ncols, dtype=np.int64)
    for g in range(12):
        cols = set()
        for k in ks[groups == g]:
            cols.update(b.indices[b.pointers[k]:b.pointers[k + 1]].tolist())
        expected[g] = len(cols)
        expected_minor[sorted(cols)] += 1
    assert np.array_equal(fast, expected)
    for rows, minor in (fast_both, slow_both):
        assert np.array_equal(rows, expected)
        assert np.array_equal(minor, expected_minor)


# ----------------------------------------------------------------------
# Backend selection plumbing
# ----------------------------------------------------------------------
def test_job_keys_are_backend_agnostic():
    a, b = _make_pair(LAYER_CASES[2])
    config = default_config()
    jobs = [
        SimJob(design="engine", config=config, a=a, b=b,
               dataflow=Dataflow.GUST_M, engine=engine)
        for engine in (None, "reference", "vectorized")
    ]
    keys = {job.key() for job in jobs}
    assert len(keys) == 1


def test_job_rejects_unknown_engine():
    a, b = _make_pair(LAYER_CASES[1])
    with pytest.raises(ValueError, match="engine backend"):
        SimJob(design="engine", config=default_config(), a=a, b=b,
               dataflow=Dataflow.IP_M, engine="turbo")


def test_cache_entries_are_shared_between_backends(tmp_path):
    a, b = _make_pair(LAYER_CASES[2])
    config = default_config()

    def job(engine):
        return SimJob(design="GAMMA-like", config=config, a=a, b=b, engine=engine)

    cold = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
    (first,) = cold.run([job("reference")])
    assert cold.stats.executed == 1

    warm = BatchRunner(parallel=False, cache=ResultCache(tmp_path))
    (second,) = warm.run([job("vectorized")])
    assert warm.stats.executed == 0 and warm.stats.cache_hits == 1
    assert first.cycles == second.cycles and first.traffic == second.traffic


def test_settings_engine_resolution(monkeypatch):
    from repro.experiments.settings import ExperimentSettings, default_settings

    assert ExperimentSettings().engine == "vectorized"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert default_settings().engine == "reference"
    assert default_settings(engine="vectorized").engine == "vectorized"
    assert resolve_engine_backend(None) == "reference"
    monkeypatch.delenv("REPRO_ENGINE")
    assert resolve_engine_backend(None) == "vectorized"
    with pytest.raises(ValueError):
        ExperimentSettings(engine="turbo")
    record = default_settings(engine="reference").to_record()
    assert record["engine"] == "reference"
    assert ExperimentSettings.from_record(record).engine == "reference"


def test_settings_record_without_engine_defaults(monkeypatch):
    from repro.experiments.settings import ExperimentSettings

    record = ExperimentSettings().to_record()
    record.pop("engine")
    assert ExperimentSettings.from_record(record).engine == "vectorized"


def test_cli_engine_flag():
    from repro.cli import build_parser

    args = build_parser().parse_args(["figure", "fig12", "--engine", "reference"])
    assert args.engine == "reference"
    args = build_parser().parse_args(["figure", "fig12"])
    assert args.engine is None
    assert set(ENGINE_BACKENDS) == {"vectorized", "reference"}


def test_engine_env_reaches_spmspm_engine(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert SpmspmEngine(default_config()).backend == "reference"
    assert SpmspmEngine(default_config(), backend="vectorized").backend == "vectorized"


# ----------------------------------------------------------------------
# miss_bytes satellite
# ----------------------------------------------------------------------
def test_cache_stats_miss_bytes_is_a_real_field():
    from repro.arch.memory.cache import CacheStats

    stats = CacheStats()
    assert stats.miss_bytes == 0
    cache = StreamingCache(1024, 128, 2)
    cache.access_byte(0)
    cache.access_byte(1)  # same line: hit
    cache.access_byte(4096)
    assert cache.stats.misses == 2
    assert cache.stats.miss_bytes == 2 * 128
    assert CacheStats(misses=3, miss_bytes=5).miss_bytes == 5


@pytest.mark.parametrize("backend", ENGINE_BACKENDS)
def test_engine_accounts_inner_product_miss_bytes(backend):
    a, b = _make_pair(LAYER_CASES[2])
    config = CONFIGS[1]  # tiny cache: IP re-streams and thrashes
    engine = SpmspmEngine(config, backend=backend)
    ctx = engine._build_context(Dataflow.IP_M, a, b)
    if backend == "vectorized":
        kernels.run_inner_product(engine, ctx)
    else:
        engine._run_inner_product(ctx)
    assert ctx.cache.stats.miss_bytes == ctx.cache.stats.misses * config.str_cache_line_bytes
    assert ctx.cache.stats.miss_bytes == ctx.dram.traffic.str_read_bytes


# ----------------------------------------------------------------------
# End-to-end: a figure cell computed by both backends is identical
# ----------------------------------------------------------------------
def test_layerwise_grid_equal_under_both_backends():
    from repro.api import Session
    from repro.experiments.settings import default_settings

    results = {}
    for engine in ENGINE_BACKENDS:
        settings = default_settings(
            max_dense_macs=2e4, max_layers_per_model=1, engine=engine
        )
        session = Session(settings, parallel=False, cache=None)
        results[engine] = session.layerwise()
    ref, vec = results["reference"], results["vectorized"]
    assert ref.scales == vec.scales
    for layer, per_design in ref.results.items():
        for design, result in per_design.items():
            other = vec.results[layer][design]
            _assert_results_equal(result, other, (layer, design))
