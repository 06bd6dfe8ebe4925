"""Tests for the Merger-Reduction Network: the tick-level oracle and the closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.engine import SpmspmEngine
from repro.arch.config import default_config
from repro.arch.mrn import (
    MergerReductionNetwork,
    NodeMode,
    merge_cycles,
    reduction_cycles,
)
from repro.dataflows import Dataflow
from repro.sparse import random_sparse
from repro.sparse.fiber import Fiber


def sorted_fiber(pairs):
    return Fiber(sorted(pairs), sort=True)


class TestMrnStructure:
    def test_node_count(self):
        mrn = MergerReductionNetwork(16)
        assert mrn.num_nodes == 15
        assert mrn.levels == 4

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            MergerReductionNetwork(12)
        with pytest.raises(ValueError):
            MergerReductionNetwork(1)

    def test_configure_sets_all_nodes(self):
        mrn = MergerReductionNetwork(8)
        mrn.configure(NodeMode.ADDER)
        assert all(n.mode is NodeMode.ADDER for level in mrn.nodes for n in level)


class TestMrnReduce:
    def test_reduce_sums_values(self):
        mrn = MergerReductionNetwork(8)
        total, cycles = mrn.reduce([1.0, 2.0, 3.0, 4.0])
        assert total == pytest.approx(10.0)
        assert cycles == 2  # log2(4)

    def test_reduce_empty(self):
        mrn = MergerReductionNetwork(4)
        assert mrn.reduce([]) == (0.0, 0)

    def test_reduce_too_many_rejected(self):
        mrn = MergerReductionNetwork(4)
        with pytest.raises(ValueError):
            mrn.reduce([1.0] * 5)

    def test_reduce_clusters_parallel_cost(self):
        mrn = MergerReductionNetwork(8)
        sums, cycles = mrn.reduce_clusters([[1.0, 2.0], [3.0, 4.0, 5.0], [6.0]])
        assert sums == [pytest.approx(3.0), pytest.approx(12.0), pytest.approx(6.0)]
        assert cycles == 2  # depth of the largest cluster

    def test_reduce_clusters_capacity_check(self):
        mrn = MergerReductionNetwork(4)
        with pytest.raises(ValueError):
            mrn.reduce_clusters([[1.0, 1.0, 1.0], [1.0, 1.0]])

    def test_addition_count(self):
        mrn = MergerReductionNetwork(8)
        mrn.reduce([1.0] * 6)
        assert mrn.stats.additions == 5


class TestMrnMerge:
    def test_merge_two_sorted_fibers(self):
        mrn = MergerReductionNetwork(4)
        a = Fiber([(0, 1.0), (3, 2.0)])
        b = Fiber([(1, 5.0), (3, 1.0)])
        merged, cycles = mrn.merge([a, b])
        assert merged == a.merged(b)
        assert cycles >= len(merged)

    def test_merge_matches_reference_k_way(self):
        mrn = MergerReductionNetwork(8)
        fibers = [
            Fiber([(0, 1.0), (4, 2.0), (9, 1.0)]),
            Fiber([(1, 1.0), (4, -2.0)]),
            Fiber([(2, 3.0)]),
            Fiber([(0, 1.0), (9, 4.0)]),
            Fiber([(7, 2.0)]),
        ]
        merged, _ = mrn.merge(fibers)
        assert merged == Fiber.merge_many(fibers)

    def test_merge_empty_inputs(self):
        mrn = MergerReductionNetwork(4)
        merged, _ = mrn.merge([Fiber(), Fiber()])
        assert merged.is_empty()

    def test_merge_single_fiber_passthrough(self):
        mrn = MergerReductionNetwork(4)
        fiber = Fiber([(2, 1.0), (5, -1.0)])
        merged, _ = mrn.merge([fiber])
        assert merged == fiber

    def test_merge_capacity_check(self):
        mrn = MergerReductionNetwork(2)
        with pytest.raises(ValueError):
            mrn.merge([Fiber()] * 3)

    def test_merge_cycles_close_to_pipelined_estimate(self):
        mrn = MergerReductionNetwork(8)
        fibers = [sorted_fiber([(i * 3 + j, 1.0) for i in range(10)]) for j in range(3)]
        total_inputs = sum(f.nnz for f in fibers)
        _, cycles = mrn.merge(fibers)
        # Root emits at most one element per cycle; pipeline depth adds a few.
        assert total_inputs <= cycles <= 3 * total_inputs + 4 * mrn.levels + 8

    def test_stats_accumulate(self):
        mrn = MergerReductionNetwork(4)
        mrn.merge([Fiber([(0, 1.0)]), Fiber([(0, 2.0)])])
        assert mrn.stats.additions >= 1
        assert mrn.stats.elements_out == 1

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 30), st.floats(-5, 5, allow_nan=False)),
                max_size=12,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_reference_merge_property(self, raw_fibers):
        fibers = [sorted_fiber(pairs) for pairs in raw_fibers]
        mrn = MergerReductionNetwork(8)
        merged, _ = mrn.merge(fibers)
        expected = Fiber.merge_many(fibers)
        assert merged.coords == expected.coords
        for got, want in zip(merged.values, expected.values):
            assert got == pytest.approx(want)


class TestClosedFormEstimates:
    def test_reduction_cycles(self):
        assert reduction_cycles(0, 16, 6) == 0.0
        assert reduction_cycles(32, 16, 6) == pytest.approx(2 + 6)

    def test_merge_cycles(self):
        assert merge_cycles(0, 16, 6) == 0.0
        assert merge_cycles(160, 16, 6) == pytest.approx(10 + 6)

    def test_bandwidth_floor(self):
        assert reduction_cycles(10, 0, 2) == pytest.approx(10 + 2)


def op_row_merge_inputs(a, b):
    """Partial-sum elements each output row of an Outer-Product ``a x b`` merges.

    Every stationary scalar ``a[m, k]`` emits one partial fiber of length
    ``nnz(b[k, :])`` for row ``m``.
    """
    b_row_nnz = (b.to_dense() != 0).sum(axis=1)
    return (a.to_dense() != 0).astype(np.int64) @ b_row_nnz


class TestMrnIsTheEngineMergeOracle:
    """The engine's Outer-Product merge phase is ``merge_cycles`` per row, with
    the tree depth of the MRN the tick-level simulator models.

    With K <= P every output row has at most P partial fibers, so it merges
    in one pass; the default DRAM bandwidth (320 B/cycle) keeps the output
    writes below the merge time and the layers are too small to spill the
    PSRAM.  Under those conditions ``cycles.merging`` is exactly the sum
    over rows of the closed form, on both engine backends.
    """

    @given(
        p=st.sampled_from([2, 4, 8, 16, 64]),
        bandwidth=st.sampled_from([1, 3, 16]),
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        k_frac=st.floats(0.0, 1.0),
        densities=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0)),
        seed=st.integers(0, 2**16),
        dataflow=st.sampled_from([Dataflow.OP_M, Dataflow.OP_N]),
        backend=st.sampled_from(["reference", "vectorized"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_merging_cycles_equal_mrn_closed_form(
        self, p, bandwidth, m, n, k_frac, densities, seed, dataflow, backend
    ):
        k = max(1, round(k_frac * p))
        a = random_sparse(m, k, densities[0], seed=seed)
        b = random_sparse(k, n, densities[1], seed=seed + 1)
        config = default_config(num_multipliers=p, reduction_bandwidth=bandwidth)
        result = SpmspmEngine(config, backend=backend).run_layer(dataflow, a, b)
        assert result.dram.psum_spill_bytes == 0

        # An N-stationary dataflow runs the mirrored product b.T x a.T.
        rows = op_row_merge_inputs(a, b) if dataflow is Dataflow.OP_M else (
            op_row_merge_inputs(b.transposed(), a.transposed())
        )
        levels = MergerReductionNetwork(p).levels
        expected = sum(merge_cycles(int(inputs), bandwidth, levels) for inputs in rows)
        assert result.cycles.merging == expected
