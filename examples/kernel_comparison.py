"""Compare the SymProp kernel against the CSS and SPLATT baselines.

Demonstrates the paper's central claim on one mid-size tensor: identical
results, but compact intermediates shrink both the flop count and the
memory footprint — and under a memory budget the baselines hit OOM where
SymProp keeps running.

Run:  python examples/kernel_comparison.py
"""

import time

import numpy as np

from repro import (
    ExecContext,
    KernelStats,
    MemoryBudget,
    MemoryLimitError,
    random_sparse_symmetric,
    s3ttmc,
)
from repro.baselines import css_s3ttmc, splatt_ttmc
from repro.perfmodel import footprint_table, total_css, total_sp

ORDER, DIM, UNNZ, RANK = 6, 200, 2_000, 4

x = random_sparse_symmetric(ORDER, DIM, UNNZ, seed=0)
u = np.linalg.qr(np.random.default_rng(0).standard_normal((DIM, RANK)))[0]
print(f"tensor: {x}, rank {RANK}")

# --- flops: model and measured -------------------------------------------
print(f"\nmodel flops  SP:  {total_sp(ORDER, RANK, UNNZ)/1e6:9.1f} Mflop")
print(f"model flops  CSS: {total_css(ORDER, RANK, UNNZ)/1e6:9.1f} Mflop")

sp_stats, css_stats = KernelStats(), KernelStats()
tick = time.perf_counter()
y_sp = s3ttmc(x, u, stats=sp_stats)
t_sp = time.perf_counter() - tick
tick = time.perf_counter()
y_css = css_s3ttmc(x, u, stats=css_stats)
t_css = time.perf_counter() - tick
tick = time.perf_counter()
y_splatt = splatt_ttmc(x, u)
t_splatt = time.perf_counter() - tick

# Identical results (SP expanded == CSS == SPLATT):
assert np.allclose(y_sp.to_full_unfolding(), y_css, atol=1e-9)
assert np.allclose(y_css, y_splatt, atol=1e-9)
print("\nall three kernels agree bit-for-bit (up to round-off).")

print(f"\n{'kernel':12s} {'time':>10s} {'output shape':>16s}")
print(f"{'SymProp':12s} {t_sp*1e3:8.1f} ms {str(y_sp.unfolding.shape):>16s}")
print(f"{'CSS':12s} {t_css*1e3:8.1f} ms {str(y_css.shape):>16s}")
print(f"{'SPLATT':12s} {t_splatt*1e3:8.1f} ms {str(y_splatt.shape):>16s}")
print(f"\nSymProp speedup: {t_css/t_sp:.1f}x over CSS, {t_splatt/t_sp:.1f}x over SPLATT")

# --- memory: the footprint model and a real budget ------------------------
print("\nclosed-form footprints (bytes):")
for kernel, fp in footprint_table(DIM, ORDER, RANK, UNNZ).items():
    print(f"  {kernel:10s} output={fp.output:>12,}  intermediates={fp.intermediates:>12,}  "
          f"expansion={fp.expansion:>12,}")

budget_mb = 64
print(f"\nunder a {budget_mb} MB budget:")
for name, fn in [("SymProp", lambda: s3ttmc(x, u)),
                 ("CSS", lambda: css_s3ttmc(x, u)),
                 ("SPLATT", lambda: splatt_ttmc(x, u))]:
    try:
        with ExecContext(budget=MemoryBudget(gigabytes=budget_mb / 1024)):
            fn()
        print(f"  {name:8s} runs")
    except MemoryLimitError as exc:
        print(f"  {name:8s} OOM ({exc.label})")
