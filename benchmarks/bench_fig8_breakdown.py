"""Figure 8: per-phase runtime breakdown of HOOI and HOQRI.

Re-runs both algorithms with phase timers on the datasets where both fit,
printing the percentage each phase contributes — the paper's finding is
that HOOI's SVD dominates wherever HOQRI wins big, while HOQRI's
times-core GEMMs add little on top of S³TTMc.
"""

from _common import BUDGET_GB, save_table

from repro.bench.records import SeriesTable
from repro.data.datasets import DATASETS
from repro.decomp import hooi, hoqri
from repro.runtime import ExecContext, MemoryBudget
from repro.runtime.timer import PhaseTimer

N_ITERS = 3
DATASET_NAMES = ("L6", "L7", "contact-school", "trivago-clicks")
FIG8_RANKS = {}


def _breakdown(fn, tensor, rank):
    timer = PhaseTimer()
    ctx = ExecContext(budget=MemoryBudget(gigabytes=BUDGET_GB))
    fn(tensor, rank, max_iters=N_ITERS, tol=0.0, seed=1, timer=timer, ctx=ctx)
    shares = timer.breakdown()
    shares.pop("init", None)
    total = sum(shares.values()) or 1.0
    return {k: 100.0 * v / total for k, v in shares.items()}


def test_fig8_breakdown(benchmark, datasets):
    def run():
        table = SeriesTable(
            "Figure 8: phase breakdown (% of iteration time)", "dataset/algorithm"
        )
        for name in DATASET_NAMES:
            spec = DATASETS[name]
            tensor = datasets[name]
            rank = FIG8_RANKS.get(name, spec.rank)
            hooi_shares = _breakdown(hooi, tensor, rank)
            hoqri_shares = _breakdown(hoqri, tensor, rank)
            row_hooi = f"{name} / HOOI"
            row_hoqri = f"{name} / HOQRI"
            for phase in ("s3ttmc", "svd", "core", "objective"):
                table.set(phase, row_hooi, round(hooi_shares.get(phase, 0.0), 1))
            for phase in ("s3ttmc", "times_core", "qr", "objective"):
                table.set(phase, row_hoqri, round(hoqri_shares.get(phase, 0.0), 1))
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(table, "fig8_breakdown")

    # SVD is a major HOOI phase on the large-dimension dataset...
    assert table.get("svd", "trivago-clicks / HOOI") > 25.0
    # ...while HOQRI spends almost everything in S3TTMc (paper: TC adds
    # only ~2% on average over S3TTMc).
    assert table.get("s3ttmc", "trivago-clicks / HOQRI") > 60.0
    assert table.get("qr", "trivago-clicks / HOQRI") < 20.0
