"""Datasets: synthetic generators, Table III registry, tensor I/O."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        ".datasets": ("DATASETS", "DatasetSpec", "dataset_names", "load_dataset"),
        ".synthetic": (
            "random_sparse_symmetric",
            "random_iou_pattern",
            "planted_lowrank",
        ),
        ".io": ("read_tns", "write_tns"),
    },
)
