"""Figure 6: strong thread scaling of S³TTMc / S³TTMcTC.

The paper measures 1–32 threads on an Andes node; this container has one
core, so the headline curves are produced by the measured-cost scheduling
simulator (DESIGN.md substitution table): the workload is split into 64
balanced chunks, each chunk's serial time is *measured*, and LPT
scheduling plus a width-calibrated contention model yields the parallel
times. The model's two constants were calibrated once against the paper's
published 32-thread endpoints (walmart-trips 27.6×, 7D 18.6×) and are
held fixed here.

On top of the simulated curves, a **measured** section runs the real
execution backends (``repro.parallel.backends``) end to end — serial
and process — and records actual wall times. On a single-core host
these validate correctness and overhead, not speedup; on a multi-core
runner they show true scaling.

``REPRO_BENCH_TINY=1`` swaps the Table III stand-ins for tiny synthetic
tensors and relaxes the shape assertions — the CI smoke mode (seconds,
not minutes).

Representatives match the paper: "walmart-trips" (wide rows — high rank)
and the order-7 synthetic "7D" (narrow rows — rank 3).
"""

import os
import time

from _common import orthonormal_factor, save_table

from repro.bench.records import SeriesTable
from repro.core.s3ttmc_tc import times_core
from repro.data.datasets import DATASETS
from repro.data.synthetic import random_sparse_symmetric
from repro.parallel import (
    ParallelRunReport,
    make_backend,
    measure_chunk_costs,
    parallel_s3ttmc,
    simulate_curve,
)
from repro.symmetry.combinatorics import sym_storage_size

TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
THREADS = [1, 2] if TINY else [1, 2, 4, 8, 16, 32]
N_CHUNKS = 8 if TINY else 64
MEASURED_BACKENDS = ("serial", "process")


def _scaling_rows(name, tensor, rank, table):
    factor = orthonormal_factor(tensor.dim, rank)
    width = sym_storage_size(tensor.order - 1, rank)
    costs = measure_chunk_costs(tensor, factor, N_CHUNKS)
    curve = simulate_curve(costs, THREADS, width)
    for p, s in zip(curve.thread_counts, curve.speedups):
        table.set(f"{name} S3TTMc", str(p), round(s, 2))
    # TC: same kernel chunks plus the serial-at-low-scale GEMM tail.
    from repro.core import s3ttmc

    y = s3ttmc(tensor, factor)
    tick = time.perf_counter()
    times_core(y, factor)
    tc_tail = time.perf_counter() - tick
    curve_tc = simulate_curve(costs, THREADS, width, serial_seconds=tc_tail / 8)
    for p, s in zip(curve_tc.thread_counts, curve_tc.speedups):
        table.set(f"{name} S3TTMcTC", str(p), round(s, 2))
    return curve


def _measured_backend_rows(name, tensor, rank, table):
    """Real backend wall times (warm plans; iteration-steady-state cost)."""
    factor = orthonormal_factor(tensor.dim, rank)
    n_workers = min(2, os.cpu_count() or 1) if TINY else (os.cpu_count() or 1)
    for name_b in MEASURED_BACKENDS:
        report = ParallelRunReport()
        # One live backend across both calls (the decomposition-loop usage
        # pattern): the warm-up builds and caches the chunk plans — parent
        # and worker side — so the timed call measures the per-iteration
        # numeric cost the simulator schedules.
        with make_backend(name_b, n_workers) as backend:
            parallel_s3ttmc(tensor, factor, backend=backend)
            tick = time.perf_counter()
            parallel_s3ttmc(tensor, factor, backend=backend, report=report)
            elapsed = time.perf_counter() - tick
        table.set(f"{name} measured", name_b, round(elapsed, 4))
        assert report.plan_cache_misses == 0, (name_b, report)


def test_fig6_thread_scaling(benchmark, datasets):
    def run():
        table = SeriesTable("Figure 6: simulated strong scaling (speedup)", "threads")
        if TINY:
            walmart = random_sparse_symmetric(3, 80, 400, seed=1)
            walmart_rank = 8
            seven_d = random_sparse_symmetric(5, 60, 300, seed=3)
        else:
            walmart = datasets["walmart-trips"]
            walmart_rank = DATASETS["walmart-trips"].rank
            seven_d = random_sparse_symmetric(7, 400, 2_000, seed=3)
        seven_rank = 3
        _scaling_rows("walmart", walmart, walmart_rank, table)
        _scaling_rows("7D", seven_d, seven_rank, table)
        _measured_backend_rows("walmart", walmart, walmart_rank, table)
        _measured_backend_rows("7D", seven_d, seven_rank, table)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(table, "fig6_thread_scaling")

    # Measured backends always produce a positive wall time.
    for name in ("walmart", "7D"):
        for backend in MEASURED_BACKENDS:
            assert table.get(f"{name} measured", backend) > 0

    if TINY:
        return
    # Shape: near-linear at low counts; the wide-row workload scales better
    # at 32 threads than the narrow-row one (the paper's 27.6x vs 18.6x).
    walmart32 = table.get("walmart S3TTMc", "32")
    seven32 = table.get("7D S3TTMc", "32")
    assert walmart32 > seven32
    assert table.get("walmart S3TTMc", "2") > 1.7
    assert 10.0 < seven32 < 32.0
