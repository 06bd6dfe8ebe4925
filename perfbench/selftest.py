"""Tiny-size self-test of the benchmark (not part of the measured runs).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` at ``--size tiny`` untraced and
traced, and asserts that each run passes its own output checks, prints
exactly the metrics ``BENCHMARK.json`` names with their units (and
``error_rate``), that traced self times are non-negative and that they,
the serving remainder and ``unattributed_s`` sum to the traced wall time.
Finally it checks that the benchmark refuses to run, without printing a
result, from a directory that holds only ``BENCHMARK.json`` and its files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import config

def _run(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def check_workload(bench: dict, workload: str, trace: int) -> None:
    done = _run(config.ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    label = f"{workload} trace={trace}"
    assert done.returncode == 0, f"{label} exited {done.returncode}:\n{done.stdout}{done.stderr}"
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, label
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected, f"{label}: metrics {printed} != declared {expected}"
    report = lines[:-1]
    for name, unit in [*expected.items(), ("error_rate", "ratio")]:
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in report), (
            f"{label}: {name} is not printed with its unit {unit}"
        )
    if trace:
        table = json.loads(next(line for line in report if line.startswith("trace: "))[7:])
        assert all(value >= 0 for value in table["self_ns"].values()), table["self_ns"]
        assert table["serve_self_ns"] >= 0 and table["unattributed_ns"] >= 0, table
        covered = sum(table["self_ns"].values()) + table["serve_self_ns"]
        assert covered + table["unattributed_ns"] == table["wall_ns"], table
    print(f"ok  {label}")


def check_bare_directory() -> None:
    bare = config.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(config.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(config.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        done = _run(bare, "--workload", "paper-cold", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        assert done.returncode != 0, "the benchmark ran without the repository"
        assert not done.stdout.strip(), f"it printed a result: {done.stdout}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the repository")


def main() -> int:
    bench = json.loads((config.ROOT / "BENCHMARK.json").read_text())
    for workload in (entry["name"] for entry in bench["workloads"]):
        for trace in (0, 1):
            check_workload(bench, workload, trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
