"""Ablation benchmarks for the design choices called out in DESIGN.md.

1. Memoization scope (global lattice dedup vs per-non-zero) — structural
   sharing across non-zeros, the CSS-tree idea generalized.
2. Core layout (partially symmetric ``C_p`` vs fully symmetric ``C_f``) —
   Section IV-A's argument that ``C_p`` avoids index-mapping overhead.
3. HOOI SVD path (faithful expansion vs a thin SVD of the compact
   ``Y_p(1) diag(√p)``, Property 3) — our extension that removes HOOI's
   memory wall and most of its SVD time.
"""

import time

import numpy as np
from _ablation_impls import times_core_fullsym
from _common import orthonormal_factor, save_table

from repro.bench.records import SeriesTable
from repro.core import KernelStats, s3ttmc
from repro.core.plan import build_plan
from repro.core.s3ttmc_tc import times_core
from repro.data.datasets import DATASETS
from repro.decomp import hooi


def test_ablation_memoization(benchmark, datasets):
    """Global vs per-non-zero memoization: flops, lattice size, runtime."""

    def run():
        table = SeriesTable("Ablation: lattice memoization scope", "dataset")
        for name in ("trivago-clicks", "L7", "contact-school"):
            spec = DATASETS[name]
            tensor = datasets[name]
            factor = orthonormal_factor(spec.dim, spec.rank)
            for scope in ("global", "nonzero"):
                stats = KernelStats()
                plan = build_plan(tensor.indices, scope)
                tick = time.perf_counter()
                s3ttmc(tensor, factor, stats=stats, plan=plan)
                seconds = time.perf_counter() - tick
                table.set(f"{scope} time", name, f"{seconds:.3f} s")
                table.set(f"{scope} Gflop", name, round(stats.kernel_flops / 1e9, 3))
                table.set(f"{scope} edges", name, plan.total_edges)
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(table, "ablation_memoization")
    # Global sharing never increases flops.
    for name in table.rows:
        assert table.get("global Gflop", name) <= table.get("nonzero Gflop", name)


def test_ablation_core_layout(benchmark, datasets):
    """C_p (paper's choice) vs fully symmetric C_f with index mapping."""

    def run():
        table = SeriesTable("Ablation: core tensor layout in S3TTMcTC", "dataset")
        results = {}
        for name in ("contact-school", "walmart-trips"):
            spec = DATASETS[name]
            tensor = datasets[name]
            factor = orthonormal_factor(spec.dim, spec.rank)
            y = s3ttmc(tensor, factor)
            tick = time.perf_counter()
            a_partial = times_core(y, factor).a
            t_partial = time.perf_counter() - tick
            tick = time.perf_counter()
            a_full = times_core_fullsym(y, factor)
            t_full = time.perf_counter() - tick
            assert np.allclose(a_partial, a_full, atol=1e-6)
            table.set("C_p (partial)", name, f"{t_partial*1e3:.2f} ms")
            table.set("C_f (full sym)", name, f"{t_full*1e3:.2f} ms")
            table.set("C_p speedup", name, round(t_full / max(t_partial, 1e-9), 2))
            results[name] = (t_partial, t_full)
        return table, results

    table, results = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(table, "ablation_core_layout")
    # The partially symmetric layout should not lose; typically it wins.
    for name, (t_partial, t_full) in results.items():
        assert t_partial <= t_full * 1.5


def test_ablation_compact_svd(benchmark, datasets):
    """Faithful expand-SVD vs the compact-operand extension in HOOI."""

    def run():
        table = SeriesTable("Ablation: HOOI SVD path", "dataset")
        for name in ("L6", "contact-school"):
            spec = DATASETS[name]
            tensor = datasets[name]
            times = {}
            for method in ("expand", "compact"):
                tick = time.perf_counter()
                res = hooi(
                    tensor,
                    spec.rank,
                    max_iters=2,
                    tol=0.0,
                    seed=0,
                    svd_method=method,
                )
                times[method] = time.perf_counter() - tick
                table.set(f"{method} time", name, f"{times[method]:.3f} s")
                table.set(
                    f"{method} error", name, round(res.trace.relative_error[-1], 6)
                )
            table.set(
                "compact avoids bytes",
                name,
                spec.dim * spec.rank ** (spec.order - 1) * 8,
            )
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(table, "ablation_compact_svd")
    # Identical trajectories: both methods reach the same error.
    for name in table.rows:
        assert abs(
            table.get("expand error", name) - table.get("compact error", name)
        ) < 1e-6
