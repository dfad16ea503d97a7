"""Datasets: synthetic generators, Table III registry, tensor I/O."""

from .datasets import DATASETS, DatasetSpec, dataset_names, load_dataset
from .io import read_tns, write_tns
from .synthetic import planted_lowrank, random_iou_pattern, random_sparse_symmetric

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
    "random_sparse_symmetric",
    "random_iou_pattern",
    "planted_lowrank",
    "read_tns",
    "write_tns",
]
