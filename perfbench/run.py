"""The Flexagon reproduction's benchmark: three workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 20 --trace 0

Workloads (``--seed`` makes the inputs; the same seed gives the same ones):

* ``paper-cold`` — ``Session.figure("fig12")`` then ``Session.figure("fig15")``
  at the harness defaults, each pass in a fresh process over a fresh cache
  with a serial runner: what a cold ``python -m repro figure`` costs.  The
  seed is the synthetic-operand salt (``ExperimentSettings.seed_salt``).
* ``dse-pool`` — ``Session.dse`` over the five built-in DSE workloads and
  all 11 design points on a 2-worker persistent pool, each pass in a fresh
  process over a fresh cache.  The seed is the operand salt.
* ``serve-warm`` — a ``BackgroundServer`` over a cache filled with the
  paper-cold grids; two keep-alive clients run a closed loop of figure
  reads, warm sweeps and conditional reads.  The seed shuffles request order.

With ``--trace 0`` the run measures for ``--seconds`` seconds with nothing
wrapped and prints the end-to-end metrics.  With ``--trace 1`` it runs
rounds of an untraced and a traced pass of the same serial work and prints
the per-layer metrics from the traced passes (``spans.py``).

Every pass checks its outputs: SHA-256 digests against ``digests.json``
where a digest is recorded for the seed, identical digests across passes,
Flexagon's cycles against every fixed-dataflow design on every layer, and
byte identity of every served body with the in-process ``Session`` JSON.
The report lines print every metric with its unit, plus ``error_rate``,
``p99_ms``, the host (CPU count, workers, Python/NumPy/SciPy versions, the
SciPy fast path, the share of CPU time the hypervisor stole) and, on
``paper-cold``, the simulated speed-ups beside the paper's.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` ``BENCHMARK.json`` declares; the exit code is
1 when a check fails.  ``--size tiny`` shrinks every workload for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import config
import spans

CHILD = config.HERE / "child.py"

#: Longest a single pass may take before it is killed and counted failed.
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    """A child pass exited non-zero or printed no result."""


class Outcome:
    """What one benchmark invocation measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.host: dict | None = None
        self.digests: set[str] = set()
        self.sim: dict | None = None
        #: Share of CPU time the hypervisor stole during the run.
        self.steal_frac: float | None = None
        self.trace_table: dict | None = None

    def check_digests(self, workload: str, size: str, seed: int) -> None:
        if len(self.digests) > 1:
            self.problems.append(f"passes disagree on the output digest: {sorted(self.digests)}")
        recorded = config.recorded_digest(workload, size, seed)
        if self.digests:
            digest = min(self.digests)
            if recorded is None:
                self.notes.append(f"digest {digest} (none recorded for seed {seed})")
            elif digest != recorded:
                self.problems.append(f"digest {digest} != recorded {recorded}")
            else:
                self.notes.append(f"digest {digest} matches the recorded one")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _child_env(work) -> dict:
    """The environment of a pass: no ``REPRO_*`` knobs, scratch inside ``work``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env["REPRO_QUOTA_DIR"] = str(work / "quota")
    return env


def _child_args(opts, work, name: str, **extra) -> dict:
    cache_dir = work / name / "cache"
    cache_dir.parent.mkdir(parents=True)
    return {
        "workload": opts.workload,
        "size": opts.size,
        "seed": opts.seed,
        "cache_dir": str(cache_dir),
        "spawn_ns": time.monotonic_ns(),
        **extra,
    }


def _last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise PassFailed("pass printed no result")
    return json.loads(lines[-1])


def _spawn(args: dict, work, **streams) -> subprocess.Popen:
    # Its own process group, so that killing a pass also kills its pool workers.
    return subprocess.Popen(
        [sys.executable, str(CHILD), json.dumps(args)], cwd=work, env=_child_env(work),
        text=True, start_new_session=True, **streams,
    )


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def run_pass(opts, work, name: str, *, parallel: bool, trace: bool) -> dict:
    """One batch pass in a fresh process; returns its result record."""
    args = _child_args(opts, work, name, mode="batch", parallel=parallel, trace=trace)
    process = _spawn(args, work, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = process.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise PassFailed(f"pass {name} timed out after {PASS_TIMEOUT_S}s") from None
    finally:
        shutil.rmtree(work / name, ignore_errors=True)
    if process.returncode != 0:
        raise PassFailed(f"pass {name} exited {process.returncode}: {err[-2000:]}")
    return _last_json_line(out)


class ServerPass:
    """A serving child: set up, then serve until :meth:`stop`."""

    def __init__(self, opts, work, name: str, *, trace: bool) -> None:
        self.args = _child_args(opts, work, name, mode="serve", trace=trace)
        self.cache_dir = self.args["cache_dir"]
        # A file, not a pipe: nobody reads standard error while the server runs.
        self.stderr_path = work / name / "stderr.txt"
        with open(self.stderr_path, "w") as stderr:
            self.process = _spawn(
                self.args, work, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr
            )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise PassFailed(f"server {name} did not start")
        ready = json.loads(line)
        self.port = ready["port"]
        self.setup_s = ready["setup_s"]

    def stop(self) -> dict:
        """Close the server's input, wait for it and return its final record."""
        try:
            out, _err = self.process.communicate(input="", timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(self.process)
            raise PassFailed("server did not stop") from None
        if self.process.returncode != 0:
            stderr = self.stderr_path.read_text()[-2000:]
            raise PassFailed(f"server exited {self.process.returncode}: {stderr}")
        return _last_json_line(out)

    def kill(self) -> None:
        """Kill the server (and its pool) if it still runs, and reap it."""
        if self.process.poll() is None:
            _kill_group(self.process)
        else:
            self.process.communicate()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile (the largest sample when too few lie beyond it)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``; ``None`` off Linux.

    Steal is time the hypervisor ran something else while a virtual CPU
    wanted to run: every timing of a run that saw much of it is inflated.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def peak_rss_mib() -> float:
    """Largest peak resident set of any process this run started and waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def another_pass(start: float, done: int, seconds: float) -> bool:
    """Whether to start another pass of a run measuring ``seconds``.

    Always the first; then only while a pass of the mean length so far is
    expected to end within half a pass of the deadline, so a run measures
    about ``seconds`` rather than overshooting by a whole pass.
    """
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def _latency_metrics(outcome: Outcome, latencies_s: list[float], what: str) -> None:
    count = len(latencies_s)
    outcome.metrics["p50_ms"] = (statistics.median(latencies_s) * 1e3, "ms")
    outcome.metrics["p99_ms"] = (percentile(latencies_s, 0.99) * 1e3, "ms")
    beyond = count - math.ceil(0.99 * count)
    outcome.notes.append(
        f"latency over {count} {what}; {beyond} lie beyond p99"
        + ("" if beyond >= 10 else " (fewer than 10: p99 is a high sample, not a tail estimate)")
    )


# ----------------------------------------------------------------------
# Batch workloads: paper-cold and dse-pool
# ----------------------------------------------------------------------
def _absorb_batch(outcome: Outcome, record: dict) -> None:
    outcome.attempted += record["jobs"]
    outcome.digests.add(record["digest"])
    outcome.host = outcome.host or record["host"]
    outcome.problems += record["violations"]
    outcome.sim = outcome.sim or record["sim"] or None


def measure_batch(opts, work, outcome: Outcome) -> None:
    parallel = opts.workload == "dse-pool"
    passes = []
    start = time.perf_counter()
    while another_pass(start, len(passes), opts.seconds):
        record = run_pass(opts, work, f"pass-{len(passes)}", parallel=parallel, trace=False)
        passes.append(record)
        _absorb_batch(outcome, record)
    timed = [p["timed_ns"] / 1e9 for p in passes]
    outcome.metrics["jobs_per_s"] = (
        statistics.median(p["jobs"] / t for p, t in zip(passes, timed)), "1/s")
    outcome.metrics["req_per_s"] = (statistics.median(1.0 / t for t in timed), "1/s")
    _latency_metrics(outcome, timed, "passes (one request each)")
    outcome.metrics["setup_s"] = (statistics.median(p["setup_s"] for p in passes), "s")
    outcome.metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    outcome.notes.append(
        f"{len(passes)} passes of {passes[0]['jobs']} top-level jobs; "
        f"setup {['%.3f' % p['setup_s'] for p in passes]} s"
    )


def trace_batch(opts, work, outcome: Outcome) -> None:
    rounds = []
    start = time.perf_counter()
    while another_pass(start, len(rounds), opts.seconds):
        name = f"round-{len(rounds)}"
        pooled = None
        if opts.workload == "dse-pool":
            pooled = run_pass(opts, work, name + "-pool", parallel=True, trace=False)
        plain = run_pass(opts, work, name + "-plain", parallel=False, trace=False)
        traced = run_pass(opts, work, name + "-traced", parallel=False, trace=True)
        for record in filter(None, (pooled, plain, traced)):
            _absorb_batch(outcome, record)
        counters = (pooled or plain)["stats"]
        layer = spans.layer_metrics(traced["trace"], traced["timed_ns"])
        layer["runtime.pool_wait_s"] = counters["exec_seconds"] if counters["parallel"] else 0.0
        layer["runtime.peak_in_flight"] = counters["peak_in_flight"]
        layer["trace_overhead_frac"] = traced["timed_ns"] / plain["timed_ns"] - 1.0
        rounds.append(layer)
        outcome.trace_table = _trace_table(traced["trace"], traced["timed_ns"], 0)
    _absorb_rounds(outcome, rounds)


def _trace_table(snapshot: dict, wall_ns: int, serve_self_ns: int) -> dict:
    return {
        "wall_ns": wall_ns,
        "serve_self_ns": serve_self_ns,
        "unattributed_ns": wall_ns - snapshot["top_level_ns"] - serve_self_ns,
        "self_ns": {name: entry[0] for name, entry in snapshot["spans"].items()},
        "calls": {name: entry[1] for name, entry in snapshot["spans"].items()},
    }


def _absorb_rounds(outcome: Outcome, rounds: list[dict]) -> None:
    for name, unit in spans.PER_LAYER_UNITS.items():
        outcome.metrics[name] = (statistics.median(r[name] for r in rounds), unit)
    outcome.notes.append(f"{len(rounds)} traced rounds; per-layer values are medians over them")


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------
class Mix:
    """The serving request mix with each request's expected answer."""

    def __init__(self, opts, cache_dir: str) -> None:
        sys.path.insert(0, str(config.SRC))
        from repro.api import FigureQuery, Session, SweepSpec
        from repro.experiments.settings import ExperimentSettings
        from repro.runtime import BatchRunner, ResultCache
        from repro.serve.wire import request_etag
        from repro.workloads.models import MODEL_REGISTRY

        settings = ExperimentSettings(**config.settings_record(opts.workload, opts.size, opts.seed))
        # The in-process reference: a session reading the first server's cache.
        session = Session(settings, runner=BatchRunner(parallel=False, cache=ResultCache(cache_dir)))
        self.requests = config.serve_requests(list(MODEL_REGISTRY))
        for request in self.requests:
            if request["spec"] is not None:
                spec = SweepSpec(**request["spec"])
                body = session.sweep(spec).to_json() + "\n"
                request["jobs"] = len(spec.compile(settings)[0])
            else:
                query = FigureQuery(request["path"].rsplit("/", 1)[1])
                body = session.figure(query).to_json() + "\n"
                request["etag"] = request_etag("figure", query.key(), settings)
                request["jobs"] = 0
            request["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        self.digest = hashlib.sha256(
            "".join(f"{r['label']}:{r['sha256']}\n" for r in self.requests).encode()
        ).hexdigest()


def _exchange(conn, request: dict) -> bool:
    """Send one request; ``True`` when the answer is the expected one."""
    headers = {"Content-Type": "application/json"} if request["body"] else {}
    if request["conditional"]:
        headers["If-None-Match"] = request["etag"]
    conn.request(request["method"], request["path"], body=request["body"], headers=headers)
    response = conn.getresponse()
    payload = response.read()
    if request["conditional"]:
        return response.status == 304
    return response.status == 200 and hashlib.sha256(payload).hexdigest() == request["sha256"]


def _client(port: int, mix: Mix, order, deadline: float | None, limit: int | None, out: list) -> None:
    """A closed-loop client: the next request goes out when the last one is answered."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for index in order:
            if (deadline is not None and time.perf_counter() >= deadline) or (
                limit is not None and len(out) >= limit
            ):
                break
            request = mix.requests[index]
            start = time.perf_counter_ns()
            try:
                ok = _exchange(conn, request)
            except (OSError, http.client.HTTPException):
                ok = False
                conn.close()
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            out.append((time.perf_counter_ns() - start, ok, request["jobs"]))
    finally:
        conn.close()


def _serve_loop(port: int, mix: Mix, orders: list, seconds: float | None, limit: int | None):
    """Run one client per order against ``port``; returns (wall_ns, samples)."""
    results: list[list] = [[] for _ in orders]
    deadline = None if seconds is None else time.perf_counter() + seconds
    threads = [
        threading.Thread(target=_client, args=(port, mix, order, deadline, limit, out))
        for order, out in zip(orders, results)
    ]
    start = time.perf_counter_ns()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter_ns() - start, [sample for out in results for sample in out]


def _absorb_samples(outcome: Outcome, samples: list) -> None:
    outcome.attempted += len(samples)
    bad = sum(1 for _ns, ok, _jobs in samples if not ok)
    outcome.failed += bad
    if bad:
        outcome.problems.append(f"{bad} responses were not the expected status or bytes")


def _absorb_server(outcome: Outcome, record: dict) -> None:
    outcome.host = outcome.host or record["host"]
    if record["executed_while_serving"]:
        outcome.problems.append(
            f"the warm server executed {record['executed_while_serving']} jobs"
        )


def measure_serve(opts, work, outcome: Outcome) -> None:
    mix, orders = None, []
    setups, samples, wall_ns = [], [], 0
    for index in range(config.SERVE_SERVERS):
        server = ServerPass(opts, work, f"server-{index}", trace=False)
        try:
            setups.append(server.setup_s)
            if mix is None:
                mix = Mix(opts, server.cache_dir)
                outcome.digests.add(mix.digest)
                orders = [
                    config.request_order(opts.seed, client, len(mix.requests))
                    for client in range(config.SERVE_CLIENTS)
                ]
            elapsed, part = _serve_loop(
                server.port, mix, orders, opts.seconds / config.SERVE_SERVERS, None
            )
            _absorb_server(outcome, server.stop())
        finally:
            server.kill()
        wall_ns += elapsed
        samples += part
    _absorb_samples(outcome, samples)
    wall_s = wall_ns / 1e9
    outcome.metrics["jobs_per_s"] = (sum(jobs for _ns, ok, jobs in samples if ok) / wall_s, "1/s")
    outcome.metrics["req_per_s"] = (len(samples) / wall_s, "1/s")
    _latency_metrics(outcome, [ns / 1e9 for ns, _ok, _jobs in samples], "requests")
    outcome.metrics["setup_s"] = (statistics.median(setups), "s")
    outcome.metrics["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    outcome.notes.append(
        f"{config.SERVE_SERVERS} servers, {config.SERVE_CLIENTS} closed-loop clients; "
        f"setup {['%.3f' % s for s in setups]} s"
    )


def trace_serve(opts, work, outcome: Outcome) -> None:
    mix = None
    rounds = []
    start = time.perf_counter()
    while another_pass(start, len(rounds), opts.seconds):
        walls, records = [], []
        for traced in (False, True):
            server = ServerPass(opts, work, f"round-{len(rounds)}-{traced}", trace=traced)
            try:
                if mix is None:
                    mix = Mix(opts, server.cache_dir)
                    outcome.digests.add(mix.digest)
                order = config.request_order(opts.seed, 0, len(mix.requests))
                wall, samples = _serve_loop(
                    server.port, mix, [order], None, config.SERVE_TRACE_REQUESTS
                )
                record = server.stop()
            finally:
                server.kill()
            _absorb_samples(outcome, samples)
            _absorb_server(outcome, record)
            walls.append(wall)
            records.append((record, samples))
        record, samples = records[1]
        snapshot = record["trace"]
        serve_self_ns = sum(ns for ns, _ok, _jobs in samples) - snapshot["top_level_ns"]
        layer = spans.layer_metrics(snapshot, walls[1], serve_self_ns)
        layer["runtime.pool_wait_s"] = 0.0
        layer["runtime.peak_in_flight"] = 0
        layer["trace_overhead_frac"] = walls[1] / walls[0] - 1.0
        if layer["runtime.cache_hit_ratio"] != 1.0 or layer["runtime.cache_puts"]:
            outcome.problems.append(
                f"warm serving hit ratio {layer['runtime.cache_hit_ratio']} "
                f"with {layer['runtime.cache_puts']} cache writes"
            )
        rounds.append(layer)
        outcome.trace_table = _trace_table(snapshot, walls[1], serve_self_ns)
    _absorb_rounds(outcome, rounds)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _report(opts, outcome: Outcome) -> None:
    print(f"perfbench {opts.workload} seed={opts.seed} seconds={opts.seconds} "
          f"trace={opts.trace} size={opts.size}")
    print("host: " + json.dumps({**(outcome.host or {}), "steal_frac": outcome.steal_frac},
                                sort_keys=True))
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(f"  {'error_rate':30s} {error_rate:14.6g} ratio ({outcome.failed} failed of "
          f"{outcome.attempted} attempted)")
    sim = outcome.sim
    if sim:
        print("simulated vs paper (unvalidated; the gap is a reproduction gap, "
              "not an error bound):")
        for key, design in (("sigma", "SIGMA-like"), ("sparch", "SpArch-like"),
                            ("gamma", "GAMMA-like")):
            print(f"  sim.flexagon_vs_{key:6s} {sim['sim.flexagon_vs_' + key]:8.3f}x   "
                  f"paper {config.PAPER_SPEEDUPS[design]:.2f}x")
        print(f"  sim.str_cache_miss_rate  {sim['sim.str_cache_miss_rate']:.6f}")
        print(f"  sim.offchip_bytes        {sim['sim.offchip_bytes']}")
    if outcome.trace_table is not None:
        print("trace: " + json.dumps(outcome.trace_table, sort_keys=True))
    for note in outcome.notes:
        print("note: " + note)
    for problem in outcome.problems:
        print("CHECK FAILED: " + problem)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=config.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(config.SIZES), default="full")
    opts = parser.parse_args(argv)

    if not (config.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {config.SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    work = config.HERE / "_work" / f"{opts.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    outcome = Outcome()
    if opts.workload == "serve-warm":
        measure = trace_serve if opts.trace else measure_serve
    else:
        measure = trace_batch if opts.trace else measure_batch
    ticks = cpu_ticks()
    try:
        measure(opts, work, outcome)
    except PassFailed as error:
        outcome.problems.append(str(error))
        outcome.attempted += 1
        outcome.failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ticks is not None and (now := cpu_ticks()) is not None and now[1] > ticks[1]:
        outcome.steal_frac = (now[0] - ticks[0]) / (now[1] - ticks[1])
    outcome.check_digests(opts.workload, opts.size, opts.seed)

    _report(opts, outcome)
    # The result line carries the metrics BENCHMARK.json declares.  The report
    # above also prints p99_ms, which is not declared: on a 2-CPU virtual host
    # its spread over ten runs exceeded the largest bound a metric may have.
    declared = json.loads((config.ROOT / "BENCHMARK.json").read_text())
    wanted = {entry["name"] for entry in declared["per_layer" if opts.trace else "end_to_end"]}
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in outcome.metrics.items()
        if name in wanted
    }
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct and outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
