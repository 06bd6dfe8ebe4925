"""Tests for the inter-layer dataflow transition table (Table 4)."""

import pytest

from repro.dataflows import (
    DATAFLOW_PROPERTIES,
    Dataflow,
    requires_explicit_conversion,
    transition_table,
)
from repro.sparse import Layout

M_STATIONARY = [Dataflow.IP_M, Dataflow.OP_M, Dataflow.GUST_M]
N_STATIONARY = [Dataflow.IP_N, Dataflow.OP_N, Dataflow.GUST_N]

#: Table 4 of the paper, verbatim: rows are the first layer's dataflow,
#: columns the second layer's, True means an Explicit Conversion is required.
PAPER_TABLE4 = {
    Dataflow.IP_M:   {Dataflow.IP_M: False, Dataflow.OP_M: True,  Dataflow.GUST_M: False,
                      Dataflow.IP_N: False, Dataflow.OP_N: True,  Dataflow.GUST_N: True},
    Dataflow.OP_M:   {Dataflow.IP_M: False, Dataflow.OP_M: True,  Dataflow.GUST_M: False,
                      Dataflow.IP_N: False, Dataflow.OP_N: True,  Dataflow.GUST_N: True},
    Dataflow.GUST_M: {Dataflow.IP_M: False, Dataflow.OP_M: True,  Dataflow.GUST_M: False,
                      Dataflow.IP_N: False, Dataflow.OP_N: True,  Dataflow.GUST_N: True},
    Dataflow.IP_N:   {Dataflow.IP_M: True,  Dataflow.OP_M: False, Dataflow.GUST_M: True,
                      Dataflow.IP_N: True,  Dataflow.OP_N: False, Dataflow.GUST_N: False},
    Dataflow.OP_N:   {Dataflow.IP_M: True,  Dataflow.OP_M: False, Dataflow.GUST_M: True,
                      Dataflow.IP_N: True,  Dataflow.OP_N: False, Dataflow.GUST_N: False},
    Dataflow.GUST_N: {Dataflow.IP_M: True,  Dataflow.OP_M: False, Dataflow.GUST_M: True,
                      Dataflow.IP_N: True,  Dataflow.OP_N: False, Dataflow.GUST_N: False},
}


class TestProducedLayout:
    @pytest.mark.parametrize("dataflow", M_STATIONARY, ids=lambda d: d.name)
    def test_m_stationary_produces_csr(self, dataflow):
        assert DATAFLOW_PROPERTIES[dataflow].c_format is Layout.CSR

    @pytest.mark.parametrize("dataflow", N_STATIONARY, ids=lambda d: d.name)
    def test_n_stationary_produces_csc(self, dataflow):
        assert DATAFLOW_PROPERTIES[dataflow].c_format is Layout.CSC


class TestRequiredActivationLayout:
    def test_matches_table3_a_formats(self):
        assert DATAFLOW_PROPERTIES[Dataflow.IP_M].a_format is Layout.CSR
        assert DATAFLOW_PROPERTIES[Dataflow.OP_M].a_format is Layout.CSC
        assert DATAFLOW_PROPERTIES[Dataflow.GUST_M].a_format is Layout.CSR
        assert DATAFLOW_PROPERTIES[Dataflow.IP_N].a_format is Layout.CSR
        assert DATAFLOW_PROPERTIES[Dataflow.OP_N].a_format is Layout.CSC
        assert DATAFLOW_PROPERTIES[Dataflow.GUST_N].a_format is Layout.CSC


class TestTransitionTable:
    @pytest.mark.parametrize("previous", list(Dataflow), ids=lambda d: d.name)
    @pytest.mark.parametrize("following", list(Dataflow), ids=lambda d: d.name)
    def test_every_cell_matches_paper_table4(self, previous, following):
        assert (
            requires_explicit_conversion(previous, following)
            is PAPER_TABLE4[previous][following]
        )

    def test_table_object_consistent_with_function(self):
        table = transition_table()
        for prev in Dataflow:
            for nxt in Dataflow:
                assert table.needs_conversion[prev][nxt] == requires_explicit_conversion(
                    prev, nxt
                )

    def test_every_dataflow_has_three_free_successors(self):
        """Each row of Table 4 has exactly three conversion-free transitions."""
        table = transition_table()
        for prev in Dataflow:
            assert len(table.allowed_without_conversion(prev)) == 3

    def test_as_rows_renders_all_cells(self):
        rows = transition_table().as_rows()
        assert len(rows) == 6
        for row in rows:
            assert len(row) == 7  # previous + 6 successors
            assert set(row.values()) <= {"ok", "EC"} | {row["previous"]}
