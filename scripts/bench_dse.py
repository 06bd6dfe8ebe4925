"""Timed DSE-driver benchmark: campaign throughput over a 64-point grid.

Registers a bench-only synthetic workload set (8 transformer/GNN shapes),
crosses it with 8 built-in design points and measures the campaign twice
over one result cache:

* **cold** — every simulation executes (engine-dominated),
* **warm** — every simulation answers from the cache, so the measured time
  is pure DSE-driver overhead: spec compilation, campaign/report keying,
  the cache scan and the Pareto collation.

Both are recorded as points/second in ``BENCH_dse.json``.  The regression
gate is the **normalised warm time**: the warm campaign's seconds divided by
the seconds of a fixed calibration loop (canonical-JSON hashing, the same
interpreter-bound kind of work as the driver's keying) timed in the same
process right before each warm round.  The unit cancels the host's absolute
speed, and unlike a cold/warm ratio it does not move when the engine-bound
cold pass gets faster or slower.  ``--check`` fails when the measured value
exceeds the committed baseline's by more than 25% (a >20% throughput
regression).  The record carries ``host_cpus`` to interpret the cold number.

Usage::

    PYTHONPATH=src python scripts/bench_dse.py                 # record
    PYTHONPATH=src python scripts/bench_dse.py --check BENCH_dse.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Session  # noqa: E402
from repro.dse.designs import default_design_points  # noqa: E402
from repro.dse.explore import DseSpec  # noqa: E402
from repro.dse.workloads import (  # noqa: E402
    gnn_adjacency,
    register_workload,
    transformer_pruning,
)
from repro.experiments.settings import default_settings  # noqa: E402
from repro.runtime import BatchRunner, ResultCache  # noqa: E402

#: Throughput fraction of the committed baseline below which --check fails:
#: the normalised warm time may grow to baseline / tolerance (25% more with
#: the default 0.8).  ``REPRO_BENCH_TOLERANCE`` widens the bound without a
#: code change, as for the other benches.
REGRESSION_TOLERANCE = float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.8"))

#: Hashes per calibration round: ~25 ms on a 2-vCPU x86 host, the same
#: order as the warm campaign it normalises.
CALIBRATION_HASHES = 1000

#: Grid edge sizes: 8 workloads x 8 design points = 64 campaign points.
NUM_WORKLOADS = 8
NUM_DESIGNS = 8


def bench_spec() -> DseSpec:
    """The 64-point campaign: bench-only workloads x built-in designs.

    The workload set spans both synthetic families with varied shapes and
    sparsities so compile/keying cost is representative; registration is
    process-local and idempotent (equal re-registration is a no-op).
    """
    names = []
    for index in range(NUM_WORKLOADS // 2):
        workload = transformer_pruning(
            f"bench-xf-{index}",
            seq_len=128 + 64 * index,
            weight_sparsity=0.70 + 0.05 * index,
        )
        names.append(register_workload(workload).name)
    for index in range(NUM_WORKLOADS // 2):
        workload = gnn_adjacency(
            f"bench-gnn-{index}",
            nodes=1024 + 512 * index,
            avg_degree=4.0 + 2.0 * index,
        )
        names.append(register_workload(workload).name)
    designs = default_design_points()[:NUM_DESIGNS]
    return DseSpec(workloads=tuple(names), designs=designs)


def calibration_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` seconds of a fixed canonical-JSON hashing loop.

    The loop does a constant amount of the interpreter-bound work the warm
    driver path does (dict building, ``json.dumps(sort_keys=True)``,
    SHA-256), so warm seconds over these seconds is a host-independent unit.
    """
    record = {
        "design": "Flexagon",
        "config": {f"field_{index}": index * 1.5 for index in range(24)},
        "workload": {"name": "calibration", "shape": [1024, 1024], "density": 0.1},
    }
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for index in range(CALIBRATION_HASHES):
            record["seed"] = index
            hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        best = min(best, time.perf_counter() - start)
    return best


def measure(budget: float, workers: int) -> dict[str, float]:
    """Cold + warm campaign throughput over one fresh cache, plus the gate value."""
    spec = bench_spec()
    points = len(spec.workloads) * len(spec.designs)
    settings = default_settings(max_dense_macs=budget, max_layers_per_model=1)
    directory = tempfile.mkdtemp(prefix="bench-dse-cache-")
    try:
        timings: dict[str, float] = {}
        calibration = float("inf")
        # One cold pass, then the warm replay timed as the best of ten: the
        # warm window is milliseconds, so a single stolen timeslice would
        # otherwise dominate the gate.  The calibration loop runs right
        # before each warm round, under the same host conditions, and also
        # keeps its best time: the gate divides one floor by the other.
        for mode, rounds in (("cold", 1), ("warm", 10)):
            seconds = float("inf")
            for _ in range(rounds):
                if mode == "warm":
                    calibration = min(calibration, calibration_seconds())
                session = Session(
                    settings,
                    runner=BatchRunner(
                        parallel=True, max_workers=workers, cache=ResultCache(directory)
                    ),
                )
                start = time.perf_counter()
                session.dse(spec)
                seconds = min(seconds, time.perf_counter() - start)
                executed = session.runner.stats.executed
                assert executed == (points if mode == "cold" else 0), (mode, executed)
            timings[mode] = seconds
        return {
            "points": points,
            "cold_points_per_second": round(points / timings["cold"], 2),
            "warm_points_per_second": round(points / timings["warm"], 2),
            "calibration_seconds": round(calibration, 5),
            "warm_calibrated": round(timings["warm"] / calibration, 4),
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--budget", type=float, default=5e4,
        help="per-layer dense-MAC budget (default 5e4: the micro scale that "
        "keeps 64 cold simulations inside a CI minute)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width of the cold pass (default: the committed "
        "record's width in --check mode, else os.cpu_count(), at least 2)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="measurement repeats; the best normalised warm time is recorded "
        "so one noisy sample (shared CI runners!) cannot fail the check",
    )
    parser.add_argument(
        "-o", "--output", default=None,
        help="where to write the measurement record (default: BENCH_dse.json "
        "when recording, bench-measured.json with --check so the committed "
        "baseline is never clobbered)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None,
        help="compare against a committed baseline record and exit non-zero "
        "when the normalised warm time grows by more than 25%%",
    )
    args = parser.parse_args(argv)
    output = args.output or ("bench-measured.json" if args.check else "BENCH_dse.json")
    baseline = json.loads(Path(args.check).read_text()) if args.check else None
    workers = args.workers
    if workers is None and baseline is not None:
        # The cold pass runs at the committed record's width, so its
        # (informational) throughput compares like for like.
        workers = int(baseline.get("workers", 0)) or None
    if workers is None:
        workers = max(2, os.cpu_count() or 1)

    best: dict[str, float] | None = None
    for _ in range(max(1, args.repeats)):
        measured = measure(args.budget, workers)
        if best is None or measured["warm_calibrated"] < best["warm_calibrated"]:
            best = measured
    assert best is not None
    record: dict[str, object] = {
        "max_dense_macs": args.budget,
        "workers": workers,
        "host_cpus": os.cpu_count(),
        "repeats": args.repeats,
        **best,
    }
    for key in ("points", "cold_points_per_second", "warm_points_per_second",
                "calibration_seconds", "warm_calibrated"):
        print(f"{key:24s} {record[key]}", file=sys.stderr)

    Path(output).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}", file=sys.stderr)

    if baseline is not None:
        ceiling = baseline["warm_calibrated"] / REGRESSION_TOLERANCE
        if record["warm_calibrated"] > ceiling:
            print(
                f"FAIL: normalised warm time {record['warm_calibrated']} exceeds "
                f"the committed baseline {baseline['warm_calibrated']} divided by "
                f"{REGRESSION_TOLERANCE:.0%} (ceiling {ceiling:.4f})",
                file=sys.stderr,
            )
            return 1
        print(
            f"OK: normalised warm time {record['warm_calibrated']} <= ceiling "
            f"{ceiling:.4f} (baseline {baseline['warm_calibrated']})",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
