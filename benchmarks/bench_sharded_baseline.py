"""Committed sharded-execution baseline: owned shards on the process backend.

Writes ``BENCH_sharded.json`` at the repository root — a small, tracked
snapshot of what owned-shard execution costs on the process backend:
cold and warm wall time, per-worker resident tensor bytes (the
``parallel.shard_bytes`` gauge, cross-checked against the
``worker_footprint`` closed form and set against the whole tensor's
bytes), and the reduction tree's predicted exchange profile
(``plan_sharded_exchange`` / ``simulate_sharded_time``). Regenerate with:

    PYTHONPATH=src python benchmarks/bench_sharded_baseline.py

Schema v2 (same as ``bench_parallel_baseline.py``): every timing is a
*phase* — a named sample list with median and MAD — so
``tools/bench_regress.py --suite sharded`` can scale its allowed delta
by observed noise. Phases: ``process.owned.cold`` / ``.warm`` plus
``owned.reduce``.

Environment knobs: ``REPRO_BENCH_TINY=1`` shrinks the workload to
CI-smoke size; ``REPRO_BASELINE_WORKERS`` overrides the worker count
(default 4 — the acceptance shape: order-4 workload, >= 4 process
workers); ``REPRO_BASELINE_REPEATS`` the warm-sample count (default 3);
``REPRO_BASELINE_OUT`` redirects the output file.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.data.synthetic import random_sparse_symmetric  # noqa: E402
from repro.decomp.hosvd import random_init  # noqa: E402
from repro.obs.regress import phase_stats  # noqa: E402
from repro.obs.trace import TraceCollector  # noqa: E402
from repro.parallel import (  # noqa: E402
    ParallelRunReport,
    make_backend,
    parallel_s3ttmc,
    plan_sharded_exchange,
    simulate_sharded_time,
)
from repro.perfmodel import worker_footprint  # noqa: E402
from repro.runtime.context import ExecContext  # noqa: E402

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
WARM_REPEATS = int(os.environ.get("REPRO_BASELINE_REPEATS", "3"))


def _workload():
    if TINY:
        return dict(order=4, dim=60, unnz=400, rank=4)
    return dict(order=4, dim=300, unnz=5_000, rank=8)


def _phase(samples) -> dict:
    """One schema-v2 phase entry: raw samples plus their median/MAD."""
    samples = [round(float(s), 6) for s in samples]
    stats = phase_stats(samples)
    entry = stats.to_dict()
    entry["samples"] = samples
    return entry


def _bench_owned(tensor, factor, n_workers, phases):
    # Fresh tensor so the run pays its own plan build and shard shipping;
    # the backend stays alive across calls (the decomposition-loop
    # pattern, under which worker-side shard/plan caches can hit).
    local = random_sparse_symmetric(
        tensor.order, tensor.dim, tensor.unnz, seed=11
    )
    collector = TraceCollector()
    ctx = ExecContext(collector=collector)
    with make_backend("process", n_workers) as backend:
        cold = ParallelRunReport()
        tick = time.perf_counter()
        parallel_s3ttmc(local, factor, backend=backend, report=cold, ctx=ctx)
        cold_seconds = time.perf_counter() - tick

        warm_samples = []
        warm = ParallelRunReport()
        for _ in range(max(1, WARM_REPEATS)):
            warm = ParallelRunReport()
            tick = time.perf_counter()
            parallel_s3ttmc(local, factor, backend=backend, report=warm, ctx=ctx)
            warm_samples.append(time.perf_counter() - tick)
    phases["process.owned.cold"] = _phase([cold_seconds])
    phases["process.owned.warm"] = _phase(warm_samples)
    phases["owned.reduce"] = _phase([warm.reduce_seconds])
    footprint = worker_footprint(
        local.dim, local.order, factor.shape[1], local.unnz, n_workers=n_workers
    )
    return {
        "shard_bytes_gauge": int(
            collector.metrics.gauge("parallel.shard_bytes").value
        ),
        "whole_tensor_bytes": int(local.unnz * (local.order * 8 + 8)),
        "worker_footprint_tensor_bytes": int(footprint.tensor),
        "worker_footprint_total_bytes": int(footprint.total),
        "n_chunks": len(warm.ranges),
        "plan_cache_hits_warm": warm.plan_cache_hits,
        "reduce_seconds": round(warm.reduce_seconds, 6),
    }


def main() -> None:
    spec = _workload()
    # >= 4 workers by default even on small hosts: the acceptance bound
    # (resident bytes <= 0.5x the whole tensor) needs a real fan-out, and
    # the pairwise tree needs >= 2 rounds to be exercised.
    n_workers = int(os.environ.get("REPRO_BASELINE_WORKERS", "0")) or 4
    tensor = random_sparse_symmetric(
        spec["order"], spec["dim"], spec["unnz"], seed=11
    )
    factor = random_init(spec["dim"], spec["rank"], np.random.default_rng(0))

    phases = {}
    owned = _bench_owned(tensor, factor, n_workers, phases)

    plan = plan_sharded_exchange(tensor, n_workers, spec["rank"])
    exchange = {
        "n_shards": plan.n_shards,
        "n_rounds": plan.n_rounds,
        "total_exchange_bytes": int(plan.total_exchange_bytes),
        "round_bytes": [int(b) for b in plan.round_bytes()],
        "imbalance": round(plan.imbalance(), 4),
        "simulated_seconds": simulate_sharded_time(plan),
    }

    payload = {
        "schema": 2,
        "generated_by": "benchmarks/bench_sharded_baseline.py",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workload": {**spec, "n_workers": n_workers, "tiny": TINY},
        "phases": phases,
        "owned": owned,
        "exchange_plan": exchange,
        "notes": (
            "Each phase is median/MAD over its samples; warm phases use "
            f"{max(1, WARM_REPEATS)} repeats with chunk plans cached, cold "
            "phases are single-sample and include plan builds plus "
            "per-shard shm shipping. shard_bytes_gauge is the per-worker "
            "resident tensor bytes the run reported; the acceptance shape "
            "is shard_bytes_gauge <= 0.5x whole_tensor_bytes at >= 4 "
            "workers. "
            "On a single-core host the process backend records overheads, "
            "not speedup."
        ),
    }
    out = Path(
        os.environ.get("REPRO_BASELINE_OUT", "") or REPO_ROOT / "BENCH_sharded.json"
    )
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
