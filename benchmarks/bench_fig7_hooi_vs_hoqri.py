"""Figure 7: total HOOI vs HOQRI runtime across datasets.

The paper runs 100 iterations; this reproduction runs a fixed small
iteration count (the comparison is per-iteration-cost dominated) under the
scaled memory budget. Faithful SVD path: HOOI expands ``Y_p`` to the full
``I × R^{N-1}`` unfolding, which exceeds the budget on the last three
datasets — exactly the paper's OOM pattern.

Rank overrides for the two high-order synthetic tensors keep HOOI's SVD
*runnable* there (as it was on the paper's 256 GB node): scaling dims
linearly cannot shrink an ``R^{N-1}`` term, so the rank is lowered instead
(documented in EXPERIMENTS.md).

The ``HOOI-compact`` row is beyond the paper: HOOI with
``svd_method="compact"``, a thin SVD of the ``I × S_{N-1,R}`` operand
``Y_p(1) diag(√p)`` (Property 3) instead of the expansion, so it has no
SVD memory wall. The ``HOOI`` row pins the paper's ``svd_method="expand"``.

``REPRO_FIG7_EXECUTION=process`` routes every S³TTMc through the
process backend (``ExecContext(execution=...)``); default ``serial``
reproduces the single-core paper numbers.
"""

import os

import pytest
from _common import BUDGET_GB, save_table

from repro.bench.records import Measurement, SeriesTable
from repro.data.datasets import DATASETS, dataset_names
from repro.decomp import hooi, hoqri
from repro.runtime import ExecContext
from repro.runtime.budget import MemoryBudget, MemoryLimitError

N_ITERS = 3
#: rank overrides so the R^{N-1} SVD expansion scales with the 170x budget
#: reduction (dims were scaled linearly; ranks cannot be on these two).
FIG7_RANKS = {"L10": 3, "H12": 2}
EXECUTION = os.environ.get("REPRO_FIG7_EXECUTION", "serial")


def _run_algorithm(fn, tensor, rank, **kwargs) -> Measurement:
    import time

    ctx = ExecContext(budget=MemoryBudget(gigabytes=BUDGET_GB), execution=EXECUTION)
    try:
        with ctx:
            tick = time.perf_counter()
            fn(tensor, rank, max_iters=N_ITERS, tol=0.0, seed=1, ctx=ctx, **kwargs)
            return Measurement.from_seconds(time.perf_counter() - tick)
    except MemoryLimitError as exc:
        return Measurement.out_of_memory(note=exc.label)


def _preflight_hooi(spec, rank) -> bool:
    from repro.perfmodel.memory import kernel_footprint

    fp = kernel_footprint("hooi-svd", spec.dim, spec.order, rank, spec.unnz)
    return fp.fits(int(BUDGET_GB * 2**30))


@pytest.fixture(scope="module")
def fig7_table(datasets):
    table = SeriesTable(
        f"Figure 7: HOOI vs HOQRI total time ({N_ITERS} iterations)", "dataset"
    )
    for name in dataset_names():
        spec = DATASETS[name]
        tensor = datasets[name]
        rank = FIG7_RANKS.get(name, spec.rank)
        if _preflight_hooi(spec, rank):
            table.set(
                "HOOI", name, _run_algorithm(hooi, tensor, rank, svd_method="expand")
            )
        else:
            table.set("HOOI", name, Measurement.out_of_memory(note="SVD expansion"))
        table.set("HOQRI", name, _run_algorithm(hoqri, tensor, rank))
        table.set(
            "HOOI-compact",
            name,
            _run_algorithm(hooi, tensor, rank, svd_method="compact"),
        )
        ratio = table.speedup("HOOI", "HOQRI", name)
        if ratio is not None:
            table.set("HOQRI speedup", name, round(ratio, 2))
    return table


def test_fig7_hooi_vs_hoqri(benchmark, fig7_table):
    table = benchmark.pedantic(lambda: fig7_table, rounds=1, iterations=1)
    save_table(table, "fig7_hooi_vs_hoqri")

    # Paper shape: HOOI OOMs on the last three datasets; HOQRI runs all.
    for name in ("walmart-trips", "stackoverflow", "amazon-reviews"):
        assert table.get("HOOI", name).oom
        assert table.get("HOQRI", name).ok
        # Beyond the paper: without the expansion HOOI has no SVD wall.
        assert table.get("HOOI-compact", name).ok
    # HOQRI wins clearly on the large-dimension real datasets.
    for name in ("contact-school", "trivago-clicks"):
        ratio = table.speedup("HOOI", "HOQRI", name)
        assert ratio is not None and ratio > 1.0, (name, ratio)
    # Low-order synthetic tensors: HOOI is competitive (within 3x).
    for name in ("L6", "L7"):
        ratio = table.speedup("HOOI", "HOQRI", name)
        assert ratio is not None and ratio > 1 / 3
