"""Text I/O for sparse symmetric tensors (FROSTT-style ``.tns``).

Format: optional ``#`` comment lines, then a header line
``order dim unnz``, then one line per IOU non-zero with 1-based indices
followed by the value — compatible in spirit with the FROSTT ``.tns``
convention the paper's SPLATT I/O patch reads (IOU entries only, no
permutation expansion on disk).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from ..formats.ucoo import SparseSymmetricTensor

__all__ = ["write_tns", "read_tns"]

PathLike = Union[str, Path, TextIO]


def _open(target: PathLike, mode: str):
    if isinstance(target, (str, Path)):
        return open(target, mode, encoding="utf-8"), True
    return target, False


def write_tns(tensor: SparseSymmetricTensor, target: PathLike) -> None:
    """Write IOU non-zeros with 1-based indices."""
    handle, owned = _open(target, "w")
    try:
        handle.write("# repro sparse symmetric tensor (IOU entries, 1-based)\n")
        handle.write(f"{tensor.order} {tensor.dim} {tensor.unnz}\n")
        for row, value in zip(tensor.indices, tensor.values):
            coords = " ".join(str(int(c) + 1) for c in row)
            handle.write(f"{coords} {float(value)!r}\n")
    finally:
        if owned:
            handle.close()


def read_tns(source: PathLike) -> SparseSymmetricTensor:
    """Read a tensor written by :func:`write_tns`; a malformed or
    non-finite entry raises ``ValueError`` naming its line."""
    handle, owned = _open(source, "r")
    try:
        header = None
        rows = []
        vals = []
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if header is None:
                if len(parts) != 3 or not all(p.isdecimal() for p in parts):
                    raise ValueError(f"line {lineno}: header must be 'order dim unnz'")
                header = tuple(int(p) for p in parts)
                continue
            order = header[0]
            if len(parts) != order + 1:
                raise ValueError(
                    f"line {lineno}: expected {order} indices + value, got {len(parts)} fields"
                )
            try:
                coords = [int(p) - 1 for p in parts[:order]]
                value = float(parts[order])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad index or value") from exc
            dim = header[1]
            if not all(0 <= c < dim for c in coords):
                raise ValueError(
                    f"line {lineno}: index out of range [1, {dim}]"
                )
            rows.append(coords)
            if not np.isfinite(value):
                raise ValueError(f"line {lineno}: value {value} is not finite")
            vals.append(value)
        if header is None:
            raise ValueError("missing header line")
        order, dim, unnz = header
        if len(rows) != unnz:
            raise ValueError(f"header claims {unnz} non-zeros, file has {len(rows)}")
        indices = np.array(rows, dtype=np.int64).reshape(len(rows), order)
        values = np.array(vals, dtype=np.float64)
        return SparseSymmetricTensor(order, dim, indices, values)
    finally:
        if owned:
            handle.close()


def tns_roundtrip(tensor: SparseSymmetricTensor) -> SparseSymmetricTensor:
    """In-memory write/read cycle (used by tests)."""
    buffer = io.StringIO()
    write_tns(tensor, buffer)
    buffer.seek(0)
    return read_tns(buffer)
