"""Workload sizes, the serving request mix and the recorded output digests.

Shared by the orchestrator (``run.py``) and the per-pass child processes
(``child.py``); importing it imports nothing from the ``repro`` package.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("paper-cold", "dse-pool", "serve-warm")

#: Worker processes of every pooled runner; never more than a 2-CPU host has.
WORKERS = 2

#: Per-layer dense-MAC budget and sampled layers per model of each size.
#: ``full`` is the measured benchmark: the paper grids at the harness
#: defaults, and a DSE budget 15x the default so simulation, not cache
#: writes, dominates the campaign.  ``tiny`` exists for the self-test.
SIZES = {
    "full": {"macs": 4.0e6, "layers": 10, "dse_macs": 6.0e7},
    "tiny": {"macs": 2.0e4, "layers": 1, "dse_macs": 2.0e4},
}

#: Figure and table ids the serving mix reads (answered from the session memo).
SERVE_FIGURES = ("fig12", "fig13", "fig14", "fig15", "fig16", "fig18", "table2")

#: Clients of the serving closed loop.
SERVE_CLIENTS = 2

#: Servers started per serving run: each is one set-up sample, and the
#: measured seconds are split evenly over them.
SERVE_SERVERS = 2

#: Requests in one sequential pass of a traced serving round.
SERVE_TRACE_REQUESTS = 120

#: The paper's end-to-end geomean speed-ups of Flexagon over each design.
PAPER_SPEEDUPS = {"SIGMA-like": 4.59, "SpArch-like": 1.71, "GAMMA-like": 1.35}


def settings_record(workload: str, size: str, seed: int) -> dict:
    """Keyword arguments of the ``ExperimentSettings`` a pass runs under.

    The batch workloads take the seed as the synthetic-operand salt; the
    serving workload fixes the salt and uses the seed for request order.
    """
    sizing = SIZES[size]
    macs = sizing["dse_macs"] if workload == "dse-pool" else sizing["macs"]
    return {
        "max_dense_macs": macs,
        "max_layers_per_model": sizing["layers"],
        "seed_salt": 0 if workload == "serve-warm" else seed,
    }


def serve_requests(models: list[str]) -> list[dict]:
    """The distinct requests of the serving mix.

    Each is ``{"label", "method", "path", "body", "conditional", "spec"}``;
    the caller adds the expected answer.  A conditional figure read sends
    the figure's ETag and must be answered ``304``.
    """
    requests = []
    for figure in SERVE_FIGURES:
        for conditional in (False, True):
            requests.append({
                "label": f"{'if-none-match ' if conditional else ''}GET {figure}",
                "method": "GET", "path": f"/v1/figure/{figure}", "body": None,
                "conditional": conditional, "spec": None,
            })
    for group in [[model] for model in models] + [list(models)]:
        spec = {"models": group}
        requests.append({
            "label": f"POST sweep {'+'.join(group) if len(group) == 1 else 'all-models'}",
            "method": "POST", "path": "/v1/sweep",
            "body": json.dumps(spec).encode(), "conditional": False, "spec": spec,
        })
    return requests


def request_order(seed: int, stream: int, distinct: int):
    """Endless request indices: seeded shuffles of the whole mix, one after another.

    ``stream`` tells the clients of one run apart, so each walks its own order.
    """
    rng = random.Random(f"{seed}:{stream}")
    while True:
        block = list(range(distinct))
        rng.shuffle(block)
        yield from block


def recorded_digest(workload: str, size: str, seed: int) -> str | None:
    """The SHA-256 recorded for this (workload, seed), if any.

    ``digests.json`` holds two seeds per workload: seed 1, used while the
    workloads were sized, and seed 7919, held out from sizing so that a
    later claim can be checked on a seed nobody tuned against.  A serving
    digest covers the fixed request set, so it is the same for every seed.
    """
    if size != "full":
        return None
    recorded = json.loads(DIGESTS.read_text())
    return recorded.get(workload, {}).get(str(seed))
