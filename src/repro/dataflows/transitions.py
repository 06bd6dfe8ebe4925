"""Inter-layer dataflow transitions (Section 3.3, Table 4).

M-stationary dataflows emit matrix C in CSR; N-stationary dataflows emit CSC.
When the next layer's chosen dataflow can accept its activation operand in
the format the previous layer produced, no explicit format conversion is
needed; otherwise an Explicit Conversion (EC) would be required.  The
paper's mapper uses this table to chain per-layer dataflow choices without
paying for conversions, which is one of its contributions.  This
reproduction runs every layer independently (no conversion state flows
between layers), so the table is reproduced as Table 4 but does not steer
the mapper.

In a layer chain ``C_layer_i`` becomes the *A operand* (the activations) of
layer ``i+1``; the weights of layer ``i+1`` are assumed to be stored offline
in both formats (as the paper states), so only the activation format
constrains the transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflows.base import DATAFLOW_PROPERTIES, Dataflow


def requires_explicit_conversion(previous: Dataflow, following: Dataflow) -> bool:
    """True when chaining ``previous`` -> ``following`` needs an explicit conversion.

    This reproduces Table 4: a transition is free exactly when the layout the
    first layer produces C in (the *C format* column of Table 3) matches the
    layout the second layer consumes its activations in (its *A format*
    column; the weights are stored offline in both layouts, as the paper
    assumes).
    """
    produced = DATAFLOW_PROPERTIES[previous].c_format
    consumed = DATAFLOW_PROPERTIES[following].a_format
    return produced is not consumed


@dataclass(frozen=True)
class TransitionTable:
    """The full 6x6 transition legality matrix."""

    #: ``matrix[prev][next]`` is True when the transition needs an explicit conversion.
    needs_conversion: dict[Dataflow, dict[Dataflow, bool]]

    def allowed_without_conversion(self, previous: Dataflow) -> list[Dataflow]:
        """Dataflows the next layer may use for free after ``previous``."""
        return [
            nxt for nxt, needs in self.needs_conversion[previous].items() if not needs
        ]

    def as_rows(self) -> list[dict[str, str]]:
        """Render the table as printable rows (used by the bench harness)."""
        rows = []
        for prev in Dataflow:
            row = {"previous": prev.informal_name}
            for nxt in Dataflow:
                row[nxt.informal_name] = (
                    "EC" if self.needs_conversion[prev][nxt] else "ok"
                )
            rows.append(row)
        return rows


def transition_table() -> TransitionTable:
    """Build the Table 4 transition matrix from the dataflow properties."""
    matrix = {
        prev: {nxt: requires_explicit_conversion(prev, nxt) for nxt in Dataflow}
        for prev in Dataflow
    }
    return TransitionTable(needs_conversion=matrix)
