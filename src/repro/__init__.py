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

from .core import KernelStats, s3ttmc, s3ttmc_tc
from .data import (
    DATASETS,
    dataset_names,
    load_dataset,
    planted_lowrank,
    random_sparse_symmetric,
)
from .decomp import DecompositionResult, hooi, hoqri
from .formats import (
    CSFTensor,
    CSSTensor,
    DenseSymmetricTensor,
    PartiallySymmetricTensor,
    SparseSymmetricTensor,
)
from .hypergraph import Hypergraph, adjacency_tensor
from .apps import symmetric_apply
from .cp import symmetric_cp_als, symmetric_mttkrp
from .obs import TraceCollector
from .runtime import ExecContext, MemoryBudget, MemoryLimitError, current_context

__version__ = "1.0.0"

__all__ = [
    "s3ttmc",
    "s3ttmc_tc",
    "KernelStats",
    "hooi",
    "hoqri",
    "DecompositionResult",
    "SparseSymmetricTensor",
    "CSSTensor",
    "CSFTensor",
    "DenseSymmetricTensor",
    "PartiallySymmetricTensor",
    "Hypergraph",
    "adjacency_tensor",
    "random_sparse_symmetric",
    "planted_lowrank",
    "load_dataset",
    "dataset_names",
    "DATASETS",
    "MemoryBudget",
    "ExecContext",
    "current_context",
    "TraceCollector",
    "symmetric_apply",
    "symmetric_cp_als",
    "symmetric_mttkrp",
    "MemoryLimitError",
    "__version__",
]
