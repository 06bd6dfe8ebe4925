"""Experiment harness: the code paths behind every table and figure.

The benchmark scripts under ``benchmarks/`` are thin wrappers around this
package.  Each experiment function returns plain row dictionaries (ready for
:func:`repro.metrics.format_table`) so the same code also powers the examples
and can be reused programmatically.
"""

from repro.experiments.settings import ExperimentSettings, default_settings
from repro.experiments.layerwise import (
    LayerwiseResults,
    collate_layerwise,
    layerwise_jobs,
    layerwise_speedup_rows,
    onchip_traffic_rows,
    miss_rate_rows,
    offchip_traffic_rows,
)
from repro.experiments.end_to_end import (
    EndToEndResults,
    collate_end_to_end,
    end_to_end_jobs,
    end_to_end_speedup_rows,
    performance_per_area_rows,
    best_dataflow_per_layer_rows,
    model_statistics_rows,
)
from repro.experiments.area import area_power_rows, naive_comparison_rows

__all__ = [
    "ExperimentSettings",
    "default_settings",
    "LayerwiseResults",
    "collate_layerwise",
    "layerwise_jobs",
    "layerwise_speedup_rows",
    "onchip_traffic_rows",
    "miss_rate_rows",
    "offchip_traffic_rows",
    "EndToEndResults",
    "collate_end_to_end",
    "end_to_end_jobs",
    "end_to_end_speedup_rows",
    "performance_per_area_rows",
    "best_dataflow_per_layer_rows",
    "model_statistics_rows",
    "area_power_rows",
    "naive_comparison_rows",
]
