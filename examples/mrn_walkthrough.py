"""Walk through the paper's Figs. 5-7 on a tiny 4-leaf Merger-Reduction Network.

Run with::

    python examples/mrn_walkthrough.py

Using the same example matrices as the paper's walk-through (Fig. 2), the
script shows the three execution styles on the tick-level MRN model:

* Inner Product  — dot products reduced by the MRN in adder mode,
* Outer Product  — partial-sum fibers staged per output row, then merged by
  the MRN in comparator mode,
* Gustavson      — scaled B fibers merged on the fly, row by row.

Each dataflow's C is checked against ``A @ B``; the script exits with status
1 when any of them differs.
"""

import sys

import numpy as np

from repro.arch.mrn import MergerReductionNetwork
from repro.sparse import csr_from_dense, csc_from_dense
from repro.sparse.fiber import Fiber


def paper_example_matrices():
    """The 4x4 example operands used throughout Section 3.2 (dense form)."""
    a = np.array([
        [0.0, 2.0, 0.0, 0.0],
        [1.0, 0.0, 3.0, 4.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    b = np.array([
        [0.0, 5.0, 0.0, 0.0],
        [6.0, 0.0, 7.0, 0.0],
        [8.0, 0.0, 9.0, 0.0],
        [1.0, 0.0, 0.0, 2.0],
    ])
    return a, b


def render_row(row: int, merged: Fiber) -> str:
    return ", ".join(f"C[{row},{c}]={v:g}" for c, v in merged)


def inner_product_walkthrough(a_dense, b_dense) -> np.ndarray:
    print("=== Inner Product(M): stationary rows of A, streamed columns of B ===")
    a = csr_from_dense(a_dense)
    b = csc_from_dense(b_dense)
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m in range(a.nrows):
        a_fiber = a.fiber(m)
        if a_fiber.is_empty():
            continue
        for n in range(b.major_dim):
            b_fiber = b.fiber(n)
            products = [
                a_fiber.value_at(coord) * b_fiber.value_at(coord)
                for coord in a_fiber.intersect_coords(b_fiber)
            ]
            if products:
                c[m, n], cycles = mrn.reduce(products)
                print(f"  C[{m},{n}] = {c[m, n]:g}  "
                      f"({len(products)} products reduced in {cycles} tree cycles)")
    print()
    return c


def outer_product_walkthrough(a_dense, b_dense) -> np.ndarray:
    print("=== Outer Product(M): psum fibers staged per row, then merged ===")
    a = csc_from_dense(a_dense)
    b = csr_from_dense(b_dense)
    # Streaming phase: every stationary scalar A[m, k] scales the fiber B[k, :]
    # into one partial-sum fiber of output row m.
    psums: dict[int, list[Fiber]] = {}
    for k in range(a.major_dim):
        for m, a_value in a.fiber(k):
            psums.setdefault(m, []).append(b.fiber(k).scaled(a_value))
    # Merging phase: row by row, merge the row's partial fibers on the MRN.
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for row in sorted(psums):
        merged, cycles = mrn.merge(psums[row])
        for col, value in merged:
            c[row, col] = value
        print(f"  row {row}: merged {len(psums[row])} psum fibers in {cycles} cycles "
              f"-> {render_row(row, merged)}")
    print()
    return c


def gustavson_walkthrough(a_dense, b_dense) -> np.ndarray:
    print("=== Gustavson(M): scaled B rows merged on the fly, row by row ===")
    a = csr_from_dense(a_dense)
    b = csr_from_dense(b_dense)
    mrn = MergerReductionNetwork(4)
    c = np.zeros((a.nrows, b.ncols))
    for m in range(a.nrows):
        a_fiber = a.fiber(m)
        if a_fiber.is_empty():
            continue
        scaled = [b.fiber(k).scaled(value) for k, value in a_fiber]
        merged, cycles = mrn.merge(scaled)
        for col, value in merged:
            c[m, col] = value
        print(f"  row {m}: merged {len(scaled)} scaled fibers in {cycles} cycles "
              f"-> {render_row(m, merged)}")
    print()
    return c


def main() -> int:
    a_dense, b_dense = paper_example_matrices()
    expected = a_dense @ b_dense
    print("Reference C = A x B:")
    print(expected)
    print()
    walkthroughs = {
        "Inner Product": inner_product_walkthrough,
        "Outer Product": outer_product_walkthrough,
        "Gustavson": gustavson_walkthrough,
    }
    mismatches = [
        name
        for name, walkthrough in walkthroughs.items()
        if not np.allclose(walkthrough(a_dense, b_dense), expected)
    ]
    if mismatches:
        print(f"MISMATCH: {', '.join(mismatches)} did not produce A x B.")
        return 1
    print("All three dataflows produce the same C, using the same MRN substrate.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
