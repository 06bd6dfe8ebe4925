"""Per-operand-pair structure memos of the vectorized engine.

The vectorized backend computes config-independent trial structure once per
live operand pair and reuses it across dataflows, design points and mirrored
trials: streaming-cache outcomes (keyed by trace kind and cache geometry),
Gustavson chunk unions (keyed by P), layout views (shared by a transposed
view and its base) and C's row and column counts (one structure pass).
These tests pin that the memo keys cover every input the memoized values
depend on, that each piece of structure is computed exactly once, that the
memo entries die with their operands, and that the cheaper LRU model stays
exact.
"""

from __future__ import annotations

import gc
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import engine as engine_module
from repro.accelerators.engine import SpmspmEngine
from repro.arch.config import DramConfig, default_config
from repro.arch.memory.cache import StreamingCache
from repro.core.mapper import OracleMapper
from repro.dataflows.base import Dataflow
from repro.dse.designs import BUILTIN_DESIGN_POINTS
from repro.engine_vec import kernels
from repro.engine_vec.cache_model import lru_hits
from repro.runtime import BatchRunner
from repro.sparse import formats
from repro.sparse.formats import CompressedMatrix, Layout
from repro.sparse.generate import SparsityPattern, random_sparse

#: A small streaming cache (4 KiB, 64 B lines, 4-way: 16 sets) so that every
#: geometry field below changes the hit/miss outcome of the test pair.
BASE = default_config(
    num_multipliers=16,
    distribution_bandwidth=4,
    reduction_bandwidth=4,
    str_cache_bytes=4096,
    str_cache_line_bytes=64,
    str_cache_associativity=4,
    psram_bytes=4096,
    psram_block_bytes=64,
)

#: Configs that each differ from :data:`BASE` in exactly one field.
VARIANTS = {
    "str_cache_bytes": replace(BASE, str_cache_bytes=2048),
    "str_cache_associativity": replace(BASE, str_cache_associativity=2),
    "str_cache_line_bytes": replace(BASE, str_cache_line_bytes=32),
    # num_adders follows the multiplier count (a binary tree over them).
    "num_multipliers": replace(BASE, num_multipliers=8, num_adders=7),
    "psram_bytes": replace(BASE, psram_bytes=1024),
    "dram": replace(BASE, dram=DramConfig(access_time_ns=25.0, bandwidth_bytes_per_s=1e9)),
    "word_bits": replace(BASE, word_bits=64),
}


def _pair(seed: int = 3):
    a = random_sparse(48, 160, 0.3, pattern=SparsityPattern.ROW_SKEWED, seed=seed)
    b = random_sparse(160, 40, 0.35, pattern=SparsityPattern.ROW_SKEWED, seed=seed + 1)
    return a, b


def _fresh_copy(matrix: CompressedMatrix) -> CompressedMatrix:
    """An equal matrix with no memo entries of its own."""
    return pickle.loads(pickle.dumps(matrix))


def _run_all(config, a, b):
    engine = SpmspmEngine(config, backend="vectorized")
    return {dataflow: engine.run_layer(dataflow, a, b) for dataflow in Dataflow}


# ----------------------------------------------------------------------
# Memo keys cover every input
# ----------------------------------------------------------------------
@pytest.mark.parametrize("field", sorted(VARIANTS))
def test_warm_memo_matches_fresh_memo_for_one_field_variants(field):
    """A memo warmed by the base config never answers a different config wrongly."""
    a, b = _pair()
    base = _run_all(BASE, a, b)
    variant = VARIANTS[field]
    warm = _run_all(variant, a, b)
    fresh = _run_all(variant, _fresh_copy(a), _fresh_copy(b))
    for dataflow in Dataflow:
        assert warm[dataflow] == fresh[dataflow], (field, dataflow)
    # The field matters for this pair, so a key that missed it would show.
    assert any(base[d] != fresh[d] for d in Dataflow), field


def test_variant_fields_are_the_ones_named():
    for field, config in VARIANTS.items():
        differing = [
            name for name in BASE.__dataclass_fields__
            if getattr(BASE, name) != getattr(config, name)
            and name != "num_adders"
        ]
        assert differing == [field]


# ----------------------------------------------------------------------
# Each piece of structure is computed once
# ----------------------------------------------------------------------
def _design_pair():
    # Rows of A and columns of B with more than 128 non-zeros, so every
    # crossbar width of the DSE grid has multi-chunk Gustavson rows in both
    # orientations.
    a = random_sparse(24, 400, 0.45, seed=21)
    b = random_sparse(400, 20, 0.45, seed=22)
    return a, b


def test_lru_runs_once_per_trace_kind_and_geometry(monkeypatch):
    calls = []
    original = kernels.lru_hits

    def counting(lines, num_sets, associativity):
        calls.append((num_sets, associativity))
        return original(lines, num_sets, associativity)

    monkeypatch.setattr(kernels, "lru_hits", counting)
    a, b = _design_pair()
    expected = set()
    for point in BUILTIN_DESIGN_POINTS:
        cfg = point.config
        geometry = (
            cfg.str_cache_sets, cfg.str_cache_associativity,
            cfg.str_cache_line_bytes, cfg.element_bytes,
        )
        for dataflow in (Dataflow.OP_M, Dataflow.OP_N):
            expected.add((dataflow, cfg.num_multipliers) + geometry)
        for dataflow in (Dataflow.GUST_M, Dataflow.GUST_N):
            expected.add((dataflow,) + geometry)
        _run_all(cfg, a, b)
    assert len(BUILTIN_DESIGN_POINTS) == 11
    assert len(calls) == len(expected)
    # Fewer distinct traces than (design point x dataflow) runs: sharing
    # actually happens on the DSE grid.
    assert len(calls) < 4 * len(BUILTIN_DESIGN_POINTS)


def test_gustavson_unions_run_once_per_p(monkeypatch):
    calls = []
    original = kernels.grouped_union_counts

    def counting(*args, **kwargs):
        calls.append(bool(kwargs.get("with_minor_counts")))
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "grouped_union_counts", counting)
    a, b = _design_pair()
    widths = set()
    for point in BUILTIN_DESIGN_POINTS:
        widths.add(point.config.num_multipliers)
        _run_all(point.config, a, b)
    # One union pass per P in each orientation (GUST_M and GUST_N), plus the
    # single structure pass that yields C's row and column counts.
    assert calls.count(False) == 2 * len(widths)
    assert calls.count(True) == 1


def test_oracle_select_converts_twice_and_runs_one_structure_pass(monkeypatch):
    conversions = []
    structure_passes = []
    convert = CompressedMatrix._convert_layout
    output_nnz = engine_module._output_nnz

    def counting_convert(self, layout):
        conversions.append(layout)
        return convert(self, layout)

    def counting_output_nnz(a, b):
        structure_passes.append(1)
        return output_nnz(a, b)

    monkeypatch.setattr(CompressedMatrix, "_convert_layout", counting_convert)
    monkeypatch.setattr(engine_module, "_output_nnz", counting_output_nnz)
    a, b = _pair(seed=5)
    mapper = OracleMapper(
        BASE, runner=BatchRunner(parallel=False, cache=None), engine="vectorized"
    )
    mapper.select(a, b)
    # A's CSC view (OP) and B's CSC view (IP); the N-stationary trials read
    # both through their transposed views.
    assert sorted(layout.value for layout in conversions) == ["csc", "csc"]
    assert len(structure_passes) == 1


def test_transposed_view_converts_through_its_base():
    a, _ = _pair()
    view = a.transposed()
    assert view.transpose_base() is a
    converted = view.with_layout(Layout.CSR)
    assert converted.transpose_base() is a.with_layout(Layout.CSC)
    assert converted == view._convert_layout(Layout.CSR)


def test_mirrored_pair_reads_the_column_counts():
    a, b = _design_pair()
    rows, cols = engine_module.output_nnz(a, b)
    dense = (a.to_dense() != 0).astype(int) @ (b.to_dense() != 0).astype(int)
    assert np.array_equal(rows, (dense != 0).sum(axis=1))
    assert np.array_equal(cols, (dense != 0).sum(axis=0))
    mirrored = engine_module.output_row_nnz(b.transposed(), a.transposed())
    assert mirrored is cols


# ----------------------------------------------------------------------
# Lifecycle and pickling
# ----------------------------------------------------------------------
def test_memo_entries_die_with_the_operand_pair():
    gc.collect()
    before = set(formats._DERIVED_CACHE)
    a, b = _pair(seed=9)
    _run_all(BASE, a, b)
    _run_all(VARIANTS["num_multipliers"], a, b)
    assert len(formats._DERIVED_CACHE) > len(before)
    refs = (weakref.ref(a), weakref.ref(b))
    del a, b
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert set(formats._DERIVED_CACHE) <= before
    for owners, _value in formats._DERIVED_CACHE.values():
        assert all(owner() is not None for owner in owners)


def test_pickled_transposed_view_round_trips():
    """As the DSE MatrixMarket loader builds it: ``b = a.transposed()``."""
    a, _ = _pair()
    b = a.transposed()
    restored = pickle.loads(pickle.dumps(b))
    assert restored == b
    assert restored.layout is b.layout and restored.shape == b.shape
    assert restored.transpose_base() is None
    # The back-link stays out of the pickled state.
    plain = CompressedMatrix(
        b.nrows, b.ncols, b.layout, b.pointers, b.indices, b.values
    )
    assert pickle.dumps(b) == pickle.dumps(plain)
    assert restored.with_layout(Layout.CSR) == b.with_layout(Layout.CSR)
    for dataflow in Dataflow:
        assert _run_all(BASE, a, restored)[dataflow] == _run_all(BASE, a, b)[dataflow]


# ----------------------------------------------------------------------
# The LRU model's repeat-dropping against the per-line cache
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 12)), min_size=1, max_size=40
    ),
    num_sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.sampled_from([1, 2, 4]),
)
def test_lru_matches_streaming_cache_on_repeat_runs(runs, num_sets, ways):
    lines = np.repeat(
        np.array([line for line, _ in runs], dtype=np.int64),
        [count for _, count in runs],
    )
    line_bytes = 64
    cache = StreamingCache(num_sets * ways * line_bytes, line_bytes, ways)
    walked = np.array([cache.access_byte(int(line) * line_bytes) for line in lines])
    assert np.array_equal(lru_hits(lines, num_sets, ways), walked)
