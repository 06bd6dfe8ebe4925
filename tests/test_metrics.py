"""Tests for the metrics package: result records and report formatting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import GammaLikeAccelerator, SigmaLikeAccelerator
from repro.arch.config import default_config
from repro.dataflows import Dataflow, DataflowClass
from repro.dataflows.stats import DataflowStats
from repro.metrics import (
    LayerSimResult,
    ModelSimResult,
    PhaseCycles,
    TrafficBreakdown,
    format_markdown_table,
    format_table,
    geometric_mean,
    speedup,
)
from repro.metrics.reporting import histogram_line, series_to_rows
from repro.sparse import random_sparse


class TestPhaseCycles:
    def test_total(self):
        cycles = PhaseCycles(stationary=10, streaming=100, merging=40)
        assert cycles.total == 150

    def test_merge(self):
        a = PhaseCycles(1, 2, 3)
        b = PhaseCycles(10, 20, 30)
        merged = a.merged_with(b)
        assert (merged.stationary, merged.streaming, merged.merging) == (11, 22, 33)


class TestTrafficBreakdown:
    def test_onchip_total(self):
        traffic = TrafficBreakdown(sta_bytes=5, str_bytes=10, psum_bytes=15, offchip_bytes=3)
        assert traffic.onchip_bytes == 30

    def test_merge(self):
        a = TrafficBreakdown(1, 2, 3, 4)
        b = TrafficBreakdown(10, 20, 30, 40)
        merged = a.merged_with(b)
        assert merged.offchip_bytes == 44
        assert merged.onchip_bytes == 66


class TestModelSimResult:
    def _layer(self, cycles, dataflow=Dataflow.IP_M):
        return LayerSimResult(
            accelerator="X",
            dataflow=dataflow,
            cycles=PhaseCycles(streaming=cycles),
            traffic=TrafficBreakdown(str_bytes=10),
            stats=DataflowStats(multiplications=1),
        )

    def test_totals(self):
        result = ModelSimResult(accelerator="X", model_name="toy")
        result.layer_results = [self._layer(100), self._layer(50, Dataflow.GUST_M)]
        assert result.total_cycles == 150
        assert result.total_traffic.str_bytes == 20

    def test_dataflow_histogram(self):
        result = ModelSimResult(accelerator="X", model_name="toy")
        result.layer_results = [
            self._layer(1), self._layer(1), self._layer(1, Dataflow.GUST_M),
        ]
        histogram = result.dataflow_histogram
        assert histogram[Dataflow.IP_M] == 2
        assert histogram[Dataflow.GUST_M] == 1


class TestModelSimResultFromEngine:
    """A model result assembled from engine-simulated layers of a chain."""

    def _run_chain(self, accelerator, num_layers=3, seed=20):
        """Run a layer chain (C of layer i feeds layer i+1's K) layer by layer."""
        layers = []
        m, k = 40, 48
        for i in range(num_layers):
            n = 40 + 8 * i
            a = random_sparse(m, k, 0.35, seed=seed + i)
            b = random_sparse(k, n, 0.3, seed=seed + 100 + i)
            layers.append(accelerator.run_layer(a, b, layer_name=f"layer{i}"))
            k = n
        return ModelSimResult(
            accelerator=accelerator.name, model_name="toy", layer_results=layers
        )

    def test_dataflow_histogram(self):
        result = self._run_chain(GammaLikeAccelerator(default_config()))
        histogram = result.dataflow_histogram
        assert sum(histogram.values()) == 3
        assert all(d.dataflow_class is DataflowClass.GUSTAVSON for d in histogram)

    def test_total_traffic_aggregates_layers(self):
        result = self._run_chain(SigmaLikeAccelerator(default_config()))
        assert result.total_traffic.onchip_bytes == sum(
            layer.traffic.onchip_bytes for layer in result.layer_results
        )
        assert result.total_traffic.onchip_bytes > 0


class TestAggregations:
    def test_speedup(self):
        assert speedup(200, 100) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(100, 0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_geometric_mean_bounds(self, values):
        gmean = geometric_mean(values)
        assert min(values) <= gmean * (1 + 1e-9)
        assert gmean <= max(values) * (1 + 1e-9)


class TestReporting:
    ROWS = [
        {"name": "a", "value": 1.5, "flag": True},
        {"name": "bb", "value": 22.125, "flag": False},
    ]

    def test_format_table_contains_all_cells(self):
        text = format_table(self.ROWS, title="demo")
        assert "demo" in text
        assert "bb" in text
        assert "22.1" in text
        assert "yes" in text and "no" in text

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_column_selection(self):
        text = format_table(self.ROWS, columns=["name"])
        assert "value" not in text

    def test_markdown_table(self):
        text = format_markdown_table(self.ROWS)
        assert text.startswith("| name | value | flag |")
        assert "| a | 1.5 | yes |" in text

    def test_markdown_empty(self):
        assert format_markdown_table([]) == "(empty)\n"

    def test_histogram_line(self):
        text = histogram_line({"IP": 3, "OP": 1, "Gust": 0})
        assert "IP" in text and "#" in text
        assert histogram_line({}) == "(no data)"

    def test_series_to_rows(self):
        rows = series_to_rows({"s1": [1, 2], "s2": [3]}, "idx", ["x", "y"])
        assert rows[0] == {"idx": "x", "s1": 1, "s2": 3}
        assert rows[1]["s2"] == ""
