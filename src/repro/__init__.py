"""SymProp reproduction: sparse symmetric Tucker decomposition via symmetry propagation.

A from-scratch Python implementation of

    *SymProp: Scaling Sparse Symmetric Tucker Decomposition via Symmetry
    Propagation* (Li, Shivakumar, Li, Kannan — IPDPS 2025)

including the symmetry-propagated S³TTMc and S³TTMcTC kernels, HOOI and
HOQRI decompositions, all evaluated baselines (CSS full-intermediate
TTMc, SPLATT/CSF TTMc, HOQRI n-ary contraction), and the substrates they
stand on (symmetric-tensor combinatorics and formats, hypergraph adjacency
construction, memory-budget runtime, parallel partitioning).

Quick start::

    import numpy as np
    from repro import random_sparse_symmetric, hoqri

    x = random_sparse_symmetric(order=4, dim=100, unnz=2000, seed=0)
    result = hoqri(x, rank=4, max_iters=50, seed=0)
    print(result.relative_error, result.factor.shape)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — SymProp kernels (the paper's contribution)
- :mod:`repro.formats` — UCOO / CSS / CSF / dense symmetric storage
- :mod:`repro.decomp` — HOOI (Alg. 3) and HOQRI (Alg. 4)
- :mod:`repro.baselines` — CSS, SPLATT, n-ary, dense references
- :mod:`repro.symmetry` — IOU combinatorics, Properties 1–3 machinery
- :mod:`repro.hypergraph` / :mod:`repro.data` / :mod:`repro.apps` —
  datasets and applications; :mod:`repro.cp` — the CP extension
- :mod:`repro.perfmodel` / :mod:`repro.parallel` / :mod:`repro.runtime` —
  complexity models, parallel backends, ``ExecContext`` and memory budgets
- :mod:`repro.obs` — span tracing, metrics, JSONL export
  (``python -m repro.obs summarize``)
- :mod:`repro.verify` — the differential oracle (``python -m repro.verify``)
- :mod:`repro.bench` — the harness regenerating every figure/table
- :mod:`repro.serve` — the job service (``python -m repro.serve``)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".core": ("s3ttmc", "s3ttmc_tc", "KernelStats"),
        ".decomp": ("hooi", "hoqri", "DecompositionResult"),
        ".formats": (
            "SparseSymmetricTensor",
            "CSSTensor",
            "CSFTensor",
            "DenseSymmetricTensor",
            "PartiallySymmetricTensor",
        ),
        ".hypergraph": ("Hypergraph", "adjacency_tensor"),
        ".data": (
            "random_sparse_symmetric",
            "planted_lowrank",
            "load_dataset",
            "dataset_names",
            "DATASETS",
        ),
        ".runtime": (
            "MemoryBudget",
            "ExecContext",
            "current_context",
            "MemoryLimitError",
        ),
        ".obs": ("TraceCollector",),
        ".apps": ("symmetric_apply",),
        ".cp": ("symmetric_cp_als", "symmetric_mttkrp"),
    },
)
__all__.append("__version__")
