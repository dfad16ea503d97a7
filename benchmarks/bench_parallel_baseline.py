"""Committed parallel-backend baseline: serial vs process.

Writes ``BENCH_parallel.json`` at the repository root — a small, tracked
snapshot of what the execution backends cost on a known host, split into
plan-build (symbolic, paid once) and numeric (per-iteration) time. The
committed file records its host's core count (``host.cpu_count``);
regenerate on a wider runner to see more process-backend speedup:

    PYTHONPATH=src python benchmarks/bench_parallel_baseline.py

Schema v2: every timing is a *phase* — a named list of samples with
median and MAD (median absolute deviation) — so the regression gate
(``tools/bench_regress.py``) can scale its allowed delta by observed
noise instead of tripping on timer jitter. Phases: ``plain_kernel``
plus ``{backend}.cold`` / ``{backend}.warm`` / ``{backend}.plan_build``.

Environment knobs: ``REPRO_BENCH_TINY=1`` shrinks the workload to
CI-smoke size; ``REPRO_BASELINE_WORKERS`` overrides the worker count;
``REPRO_BASELINE_REPEATS`` the warm-sample count (default 3);
``REPRO_BASELINE_OUT`` redirects the output file (so regression runs
can compare a fresh snapshot against the committed one);
``REPRO_PROFILE=path`` samples the whole run — running the baseline
once with and once without it is the profiler-overhead demonstration in
CI; and ``REPRO_TRACE=path.jsonl`` opens spans (and writes the trace),
which also gives the profiler attributed stacks to fold.
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

from repro.core.s3ttmc import s3ttmc  # noqa: E402
from repro.data.synthetic import random_sparse_symmetric  # noqa: E402
from repro.decomp.hosvd import random_init  # noqa: E402
from repro.bench.harness import maybe_trace  # noqa: E402
from repro.obs.profile import profiler_from_env  # noqa: E402
from repro.obs.regress import phase_stats  # noqa: E402
from repro.parallel import (  # noqa: E402
    ParallelRunReport,
    make_backend,
    parallel_s3ttmc,
)

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
BACKENDS = ("serial", "process")
WARM_REPEATS = int(os.environ.get("REPRO_BASELINE_REPEATS", "3"))


def _workload():
    if TINY:
        return dict(order=3, dim=60, unnz=300, rank=6)
    return dict(order=4, dim=300, unnz=5_000, rank=8)


def _phase(samples) -> dict:
    """One schema-v2 phase entry: raw samples plus their median/MAD."""
    samples = [round(float(s), 6) for s in samples]
    stats = phase_stats(samples)
    entry = stats.to_dict()
    entry["samples"] = samples
    return entry


def _bench_backend(name, tensor, factor, n_workers, phases):
    # Fresh tensor copy per backend so each pays its own plan build (the
    # chunk-plan cache lives on the tensor object). The backend instance is
    # kept alive across calls — the decomposition-loop usage pattern, and
    # the only one under which the process backend's worker-side plan
    # caches can hit.
    local = random_sparse_symmetric(
        tensor.order, tensor.dim, tensor.unnz, seed=11
    )
    with make_backend(name, n_workers) as backend:
        cold = ParallelRunReport()
        tick = time.perf_counter()
        parallel_s3ttmc(local, factor, backend=backend, report=cold)
        cold_seconds = time.perf_counter() - tick

        warm_samples = []
        warm = ParallelRunReport()
        for _ in range(max(1, WARM_REPEATS)):
            warm = ParallelRunReport()
            tick = time.perf_counter()
            parallel_s3ttmc(local, factor, backend=backend, report=warm)
            warm_samples.append(time.perf_counter() - tick)
    phases[f"{name}.cold"] = _phase([cold_seconds])
    phases[f"{name}.warm"] = _phase(warm_samples)
    phases[f"{name}.plan_build"] = _phase([cold.plan_build_seconds])
    return {
        "plan_cache_misses_cold": cold.plan_cache_misses,
        "plan_cache_hits_warm": warm.plan_cache_hits,
        "plan_cache_misses_warm": warm.plan_cache_misses,
        "n_chunks": len(cold.ranges),
        "worker_utilization": round(warm.utilization(), 4),
        "critical_path_seconds": round(warm.critical_path_seconds(), 6),
    }


def main() -> None:
    spec = _workload()
    # At least 2 workers even on a single-core host so sharding and the
    # owned-shard merge are actually exercised.
    n_workers = int(
        os.environ.get("REPRO_BASELINE_WORKERS", "0")
    ) or max(2, min(4, os.cpu_count() or 1))
    tensor = random_sparse_symmetric(
        spec["order"], spec["dim"], spec["unnz"], seed=11
    )
    factor = random_init(spec["dim"], spec["rank"], np.random.default_rng(0))

    # REPRO_PROFILE alone measures the sampler thread's own cost (spans
    # only open under a collector, so the samples are unattributed/idle
    # — exactly what the CI overhead demonstration compares). Add
    # REPRO_TRACE to open spans and get attributed folded stacks; that
    # measures tracing's span-bookkeeping cost too, which on the tiny
    # workload's sub-millisecond phases is *not* below the noise floor.
    profiler = profiler_from_env()
    if profiler is not None:
        profiler.start()
    try:
        with maybe_trace():
            # Reference: the plain serial kernel (no chunking at all).
            s3ttmc(tensor, factor)  # warm the whole-tensor plan
            kernel_samples = []
            for _ in range(max(1, WARM_REPEATS)):
                tick = time.perf_counter()
                s3ttmc(tensor, factor)
                kernel_samples.append(time.perf_counter() - tick)

            phases = {"plain_kernel": _phase(kernel_samples)}
            backends = {
                name: _bench_backend(name, tensor, factor, n_workers, phases)
                for name in BACKENDS
            }
    finally:
        if profiler is not None:
            profiler.stop()

    payload = {
        "schema": 2,
        "generated_by": "benchmarks/bench_parallel_baseline.py",
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workload": {**spec, "n_workers": n_workers, "tiny": TINY},
        "phases": phases,
        "backends": backends,
        "notes": (
            "Each phase is median/MAD over its samples; warm phases use "
            f"{max(1, WARM_REPEATS)} repeats with chunk plans cached (the "
            "per-iteration steady state), cold phases are single-sample "
            "and include plan builds and, for the process backend, worker "
            "startup and shared-memory shipping. On a single-core host "
            "the process backend cannot beat serial; the file records "
            "overheads, not speedup."
        ),
    }
    out = Path(
        os.environ.get("REPRO_BASELINE_OUT", "") or REPO_ROOT / "BENCH_parallel.json"
    )
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
