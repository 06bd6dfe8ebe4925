"""Unit and property tests for the CSR/CSC compressed matrix formats."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sparse import (
    CompressedMatrix,
    Layout,
    csc_from_dense,
    csr_from_dense,
    empty_matrix,
    matrix_from_coo,
    matrix_from_fibers,
    random_sparse,
)
from repro.sparse.fiber import Fiber
from repro.sparse.formats import (
    ELEMENT_BYTES,
    POINTER_BYTES,
    matrix_from_arrays,
    stable_order,
)


def dense_strategy(max_dim=12):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(0, 2**31 - 1)
    ).map(_make_dense)


def _make_dense(args):
    rows, cols, seed = args
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(rows, cols))
    mask = rng.random((rows, cols)) < 0.4
    return dense * mask


class TestConstruction:
    def test_empty_matrix(self):
        m = empty_matrix(3, 4)
        assert m.nnz == 0
        assert m.shape == (3, 4)
        assert m.density == 0.0
        assert np.array_equal(m.to_dense(), np.zeros((3, 4)))

    def test_from_coo_csr(self):
        m = matrix_from_coo(2, 3, [(0, 1, 5.0), (1, 0, -2.0), (1, 2, 3.0)])
        assert m.layout is Layout.CSR
        assert m.nnz == 3
        expected = np.array([[0, 5.0, 0], [-2.0, 0, 3.0]])
        assert np.array_equal(m.to_dense(), expected)

    def test_from_coo_accumulates_duplicates(self):
        m = matrix_from_coo(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
        assert m.nnz == 1
        assert m.to_dense()[0, 0] == 3.0

    def test_from_coo_drops_explicit_zeros(self):
        m = matrix_from_coo(2, 2, [(0, 0, 0.0), (1, 1, 1.0)])
        assert m.nnz == 1

    def test_from_coo_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_coo(2, 2, [(2, 0, 1.0)])

    def test_invalid_pointer_vector_rejected(self):
        with pytest.raises(ValueError):
            CompressedMatrix(2, 2, Layout.CSR, [0, 1], [0], [1.0])

    def test_unsorted_fiber_rejected(self):
        with pytest.raises(ValueError):
            CompressedMatrix(1, 3, Layout.CSR, [0, 2], [2, 0], [1.0, 1.0])

    def test_matrix_from_fibers(self):
        fibers = {0: Fiber([(1, 2.0)]), 2: Fiber([(0, 1.0), (2, -1.0)])}
        m = matrix_from_fibers(3, 3, fibers)
        expected = np.array([[0, 2.0, 0], [0, 0, 0], [1.0, 0, -1.0]])
        assert np.array_equal(m.to_dense(), expected)

    def test_matrix_from_fibers_out_of_range(self):
        with pytest.raises(ValueError):
            matrix_from_fibers(2, 2, {0: Fiber([(5, 1.0)])})


class TestDenseRoundtrip:
    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_csr_roundtrip(self, dense):
        m = csr_from_dense(dense)
        assert np.allclose(m.to_dense(), dense)

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_csc_roundtrip(self, dense):
        m = csc_from_dense(dense)
        assert m.layout is Layout.CSC
        assert np.allclose(m.to_dense(), dense)

    @given(dense_strategy())
    @settings(max_examples=40, deadline=None)
    def test_layout_change_preserves_values(self, dense):
        csr = csr_from_dense(dense)
        csc = csr.with_layout(Layout.CSC)
        assert csc.layout is Layout.CSC
        assert np.allclose(csc.to_dense(), dense)
        assert csc.nnz == csr.nnz


#: Extents straddling the 16-bit radix boundary of ``stable_order``.
_MAJOR_DIMS = (1, 3, 2**16 - 1, 2**16, 2**16 + 1)
#: Minor extents also straddle the 32-bit one, reaching the comparison-sort
#: fallback (minor extents never allocate, so they can be this large).
_MINOR_DIMS = _MAJOR_DIMS + (2**32 - 1, 2**32, 2**32 + 1, 2**40)
#: Exact cancellations (1 + -1), signed zeros, ordinary values and
#: magnitudes whose sum depends on the order duplicates are added in.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, 1e16, -1e16]),
    st.floats(-1e3, 1e3, allow_nan=False, width=64),
)


def _coordinate(dim):
    """Coordinates near both ends of ``[0, dim)`` as well as anywhere in it."""
    return st.one_of(
        st.integers(0, min(dim, 4) - 1),
        st.integers(max(0, dim - 4), dim - 1),
        st.integers(0, dim - 1),
    )


@st.composite
def coo_arrays(draw):
    """``(nrows, ncols, layout, triples)`` with many repeated coordinates."""
    layout = draw(st.sampled_from(list(Layout)))
    major_dim = draw(st.sampled_from(_MAJOR_DIMS))
    minor_dim = draw(st.sampled_from(_MINOR_DIMS))
    nrows, ncols = (
        (major_dim, minor_dim) if layout is Layout.CSR else (minor_dim, major_dim)
    )
    pool = draw(
        st.lists(st.tuples(_coordinate(nrows), _coordinate(ncols)), min_size=1, max_size=12)
    )
    triples = draw(
        st.lists(st.tuples(st.sampled_from(pool), _VALUES), max_size=60)
    )
    return nrows, ncols, layout, [(r, c, v) for (r, c), v in triples]


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestMatrixFromArrays:
    """The vectorised builder against the dict-based ``matrix_from_coo``."""

    @given(coo_arrays())
    @example(
        # One cell summed in input order: (1e16 + 1) - 1e16 == 0 is dropped,
        # while an unstable order reaching 1e16 - 1e16 first would keep 1.0.
        (1, 2**40, Layout.CSR, [(0, 0, 1e16), (0, 0, 0.0), (0, 0, 0.0),
                                (0, 1, 3.0), (0, 0, 0.0), (0, 0, 1.0), (0, 0, -1e16)])
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_coo_oracle_bit_for_bit(self, case):
        nrows, ncols, layout, triples = case
        rows = np.array([r for r, _, _ in triples], dtype=np.int64)
        cols = np.array([c for _, c, _ in triples], dtype=np.int64)
        values = np.array([v for _, _, v in triples], dtype=np.float64)
        built = matrix_from_arrays(nrows, ncols, rows, cols, values, layout=layout)
        oracle = matrix_from_coo(nrows, ncols, triples, layout=layout)
        assert built.layout is oracle.layout and built.shape == oracle.shape
        assert np.array_equal(built.pointers, oracle.pointers)
        assert np.array_equal(built.indices, oracle.indices)
        assert np.array_equal(_bits(built.values), _bits(oracle.values))

    def test_duplicates_sum_in_input_order_and_cancellations_drop(self):
        rows = np.array([1, 0, 1, 0, 1])
        cols = np.array([2, 0, 2, 0, 0])
        values = np.array([1e16, 2.0, 1.0, -2.0, -0.0])
        m = matrix_from_arrays(2, 3, rows, cols, values)
        # (1e16 + 1.0) rounds back to 1e16; (2 + -2) and -0.0 are dropped.
        assert m.pointers.tolist() == [0, 0, 1]
        assert m.indices.tolist() == [2]
        assert m.values.tolist() == [1e16]

    def test_never_aliases_the_callers_arrays(self):
        rows = np.array([0, 1, 2])
        cols = np.array([0, 1, 2])
        values = np.array([1.0, 2.0, 3.0])
        m = matrix_from_arrays(3, 3, rows, cols, values)
        cols[0] = 2
        values[0] = 9.0
        assert m.indices.tolist() == [0, 1, 2]
        assert m.values.tolist() == [1.0, 2.0, 3.0]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_stable_order_matches_stable_argsort(self, data):
        bound = data.draw(
            st.sampled_from([1, 2, 255, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1, 2**40])
        )
        pool = data.draw(st.lists(_coordinate(bound), min_size=1, max_size=10))
        keys = np.array(
            data.draw(st.lists(st.sampled_from(pool), max_size=200)), dtype=np.int64
        )
        assert np.array_equal(stable_order(keys, bound), np.argsort(keys, kind="stable"))


class TestFiberAccess:
    def setup_method(self):
        self.dense = np.array([[1.0, 0, 2.0], [0, 0, 0], [3.0, 4.0, 0]])
        self.csr = csr_from_dense(self.dense)
        self.csc = csc_from_dense(self.dense)

    def test_csr_fibers_are_rows(self):
        assert self.csr.fiber(0).coords == [0, 2]
        assert self.csr.fiber(1).is_empty()
        assert self.csr.fiber(2).values == [3.0, 4.0]

    def test_csc_fibers_are_columns(self):
        assert self.csc.fiber(0).coords == [0, 2]
        assert self.csc.fiber(0).values == [1.0, 3.0]
        assert self.csc.fiber(2).coords == [0]

    def test_fiber_nnz_matches_fiber(self):
        for i in range(3):
            assert self.csr.fiber_nnz(i) == self.csr.fiber(i).nnz

    def test_fiber_index_out_of_range(self):
        with pytest.raises(IndexError):
            self.csr.fiber(3)

    def test_row_and_col_work_for_both_layouts(self):
        for m in (self.csr, self.csc):
            assert m.row(2).coords == [0, 1]
            assert m.col(0).coords == [0, 2]

    def test_iter_elements_covers_all_nonzeros(self):
        triples = set(self.csr.iter_elements())
        assert triples == {(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)}
        assert set(self.csc.iter_elements()) == triples

    def test_iter_nonempty_fibers_skips_empty(self):
        indices = [i for i, _ in self.csr.iter_nonempty_fibers()]
        assert indices == [0, 2]


class TestTransposeAndSize:
    def test_transpose_flips_shape_and_layout(self):
        m = random_sparse(5, 8, 0.3, seed=3)
        t = m.transposed()
        assert t.shape == (8, 5)
        assert t.layout is m.layout.other
        assert np.allclose(t.to_dense(), m.to_dense().T)

    def test_double_transpose_is_identity(self):
        m = random_sparse(6, 4, 0.5, seed=4)
        assert np.allclose(m.transposed().transposed().to_dense(), m.to_dense())

    def test_compressed_size_formula(self):
        m = random_sparse(10, 10, 0.2, seed=5)
        expected = m.nnz * ELEMENT_BYTES + (m.major_dim + 1) * POINTER_BYTES
        assert m.compressed_size_bytes() == expected

    def test_density_and_sparsity_sum_to_one(self):
        m = random_sparse(10, 10, 0.37, seed=6)
        assert m.density + m.sparsity == pytest.approx(1.0)


class TestGeneration:
    @pytest.mark.parametrize("pattern", ["uniform", "row_skewed", "banded", "block"])
    def test_patterns_hit_requested_density(self, pattern):
        from repro.sparse.generate import SparsityPattern

        m = random_sparse(
            64, 64, 0.2, pattern=SparsityPattern(pattern), seed=11
        )
        assert m.shape == (64, 64)
        # Allow generous tolerance: patterns are stochastic/structured.
        assert 0.05 <= m.density <= 0.45

    def test_zero_density_gives_empty_matrix(self):
        assert random_sparse(16, 16, 0.0, seed=1).nnz == 0

    def test_full_density_gives_dense_matrix(self):
        m = random_sparse(8, 8, 1.0, seed=1)
        assert m.nnz == 64

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            random_sparse(4, 4, 1.5)

    def test_reproducible_with_same_seed(self):
        a = random_sparse(20, 20, 0.3, seed=42)
        b = random_sparse(20, 20, 0.3, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_sparse(20, 20, 0.3, seed=1)
        b = random_sparse(20, 20, 0.3, seed=2)
        assert a != b

    def test_density_map_generation(self):
        from repro.sparse.generate import sparse_from_density_map

        m = sparse_from_density_map(np.array([1.0, 0.0, 0.5]), 10, seed=3)
        assert m.fiber_nnz(0) == 10
        assert m.fiber_nnz(1) == 0
        assert 0 <= m.fiber_nnz(2) <= 10
