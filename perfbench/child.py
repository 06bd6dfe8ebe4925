"""One measured pass of a workload, in a fresh process.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py '<json arguments>'

``batch`` passes (``paper-cold``, ``dse-pool``) set up a session over a
fresh cache directory, run the workload's requests once and print one JSON
line with set-up time, timed-phase time, jobs, output digest, checks and
runner counters.  ``serve`` passes set up a server over a freshly filled
cache, print a ``ready`` line with its port, serve until standard input
closes and then print their counters.  With ``"trace": true`` the pass
installs the span wrappers of ``spans.py`` after set-up and adds the span
totals of its measured phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import config


def _setup_session(args: dict, parallel: bool):
    import spans

    spans.preload()
    from repro.api import Session
    from repro.experiments.settings import ExperimentSettings
    from repro.runtime import BatchRunner, ResultCache

    settings = ExperimentSettings(
        **config.settings_record(args["workload"], args["size"], args["seed"])
    )
    runner = BatchRunner(
        parallel=parallel,
        max_workers=config.WORKERS,
        cache=ResultCache(args["cache_dir"]),
        pool_mode="persistent",
    )
    if parallel:
        # Start the pool's workers now: pool construction is set-up.
        from repro.runtime.pool import acquire_executor

        executor, _transient = acquire_executor("persistent", config.WORKERS)
        for future in [executor.submit(os.getpid) for _ in range(config.WORKERS)]:
            future.result()
    return Session(settings, runner=runner)


def _install_tracer(args: dict):
    if not args["trace"]:
        return None
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    return tracer


def _host() -> dict:
    import numpy
    import platform

    from repro.engine_vec import kernels

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "host_cpus": os.cpu_count(),
        "workers": config.WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        # The vectorized engine's structure-only pass uses SciPy's C spgemm
        # when SciPy imports, and an exact NumPy fallback otherwise.
        "scipy_fast_path": kernels._scipy_sparse is not None,
    }


def _paper_checks(session, bodies: list[str]) -> tuple[list[str], dict]:
    """Per-layer Flexagon <= fixed-design cycles, plus the simulated report."""
    fixed = ("SIGMA-like", "SpArch-like", "GAMMA-like")
    violations = []
    grid = session.end_to_end()
    for model in grid.model_names():
        per_design = grid.accelerator_results[model]
        for index, flexagon in enumerate(per_design["Flexagon"].layer_results):
            for design in fixed:
                other = per_design[design].layer_results[index]
                if flexagon.total_cycles > other.total_cycles * (1 + 1e-9):
                    violations.append(
                        f"{model} layer {index} ({flexagon.layer_name}): Flexagon "
                        f"{flexagon.total_cycles} > {design} {other.total_cycles}"
                    )
    layerwise = session.layerwise()
    miss_rates, offchip = [], 0
    for layer in layerwise.layer_names():
        flexagon = layerwise.result(layer, "Flexagon")
        miss_rates.append(flexagon.str_cache_miss_rate)
        offchip += flexagon.traffic.offchip_bytes
        for design in fixed:
            other = layerwise.result(layer, design)
            if flexagon.total_cycles > other.total_cycles * (1 + 1e-9):
                violations.append(
                    f"layer {layer}: Flexagon {flexagon.total_cycles} > "
                    f"{design} {other.total_cycles}"
                )
    geomean = json.loads(bodies[0])["rows"][-1]
    sim = {
        f"sim.flexagon_vs_{key}": geomean["Flexagon"] / geomean[design]
        for key, design in (
            ("sigma", "SIGMA-like"), ("sparch", "SpArch-like"), ("gamma", "GAMMA-like")
        )
    }
    sim["sim.str_cache_miss_rate"] = sum(miss_rates) / len(miss_rates)
    sim["sim.offchip_bytes"] = offchip
    return violations, sim


def _dse_checks(body: str, jobs: int) -> list[str]:
    rows = json.loads(body)["rows"]
    if len(rows) != jobs:
        return [f"DSE report has {len(rows)} rows for {jobs} jobs"]
    return []


def run_batch(args: dict) -> dict:
    from repro.runtime.pool import shutdown_shared_pool

    session = _setup_session(args, parallel=args["parallel"])
    tracer = _install_tracer(args)
    setup_s = (time.monotonic_ns() - args["spawn_ns"]) / 1e9

    start = time.perf_counter_ns()
    if args["workload"] == "paper-cold":
        bodies = [session.figure(figure).to_json() + "\n" for figure in ("fig12", "fig15")]
    else:
        from repro.dse.explore import DseSpec
        from repro.dse.workloads import workload_names

        bodies = [session.dse(DseSpec(workloads=workload_names())).to_json() + "\n"]
    timed_ns = time.perf_counter_ns() - start
    totals = tracer.snapshot() if tracer is not None else None

    jobs = session.stats.submitted
    if args["workload"] == "paper-cold":
        violations, sim = _paper_checks(session, bodies)
    else:
        violations, sim = _dse_checks(bodies[0], jobs), {}
    shutdown_shared_pool()
    digest = hashlib.sha256("".join(bodies).encode()).hexdigest()
    return {
        "setup_s": setup_s,
        "timed_ns": timed_ns,
        "jobs": jobs,
        "digest": digest,
        "violations": violations,
        "sim": sim,
        "stats": {
            "exec_seconds": session.stats.exec_seconds,
            "peak_in_flight": session.stats.peak_in_flight,
            "parallel": session.runner.parallel,
        },
        "trace": totals,
        "host": _host(),
    }


def run_serve(args: dict) -> dict:
    from repro.runtime.pool import shutdown_shared_pool
    from repro.serve import BackgroundServer

    session = _setup_session(args, parallel=True)
    # Fill the cache with the paper-cold grids; the figure calls also leave
    # both grids in the session memo, as on a server that has answered them.
    session.figure("fig12")
    session.figure("fig15")
    executed_by_fill = session.stats.executed
    tracer = _install_tracer(args)
    server = BackgroundServer(session)
    server.__enter__()
    try:
        ready_ns = time.monotonic_ns()
        print(json.dumps({
            "ready": True,
            "port": server.port,
            "setup_s": (ready_ns - args["spawn_ns"]) / 1e9,
        }), flush=True)
        sys.stdin.read()
        totals = tracer.snapshot() if tracer is not None else None
    finally:
        server.close(drain=0)
    shutdown_shared_pool()
    return {
        "executed_while_serving": session.stats.executed - executed_by_fill,
        "trace": totals,
        "host": _host(),
    }


def main() -> None:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, str(config.SRC))
    result = run_serve(args) if args["mode"] == "serve" else run_batch(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
