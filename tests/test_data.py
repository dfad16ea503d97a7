"""Tests for synthetic generators, the dataset registry, and tensor I/O."""

import io

import numpy as np
import pytest

from repro.data.datasets import DATASETS, dataset_names, load_dataset
from repro.data.io import read_tns, tns_roundtrip, write_tns
from repro.data.synthetic import planted_lowrank, random_iou_pattern, random_sparse_symmetric
from repro.formats import SparseSymmetricTensor
from repro.symmetry.combinatorics import sym_storage_size


class TestRandomPattern:
    def test_count_and_uniqueness(self, rng):
        idx = random_iou_pattern(4, 10, 100, rng)
        assert idx.shape == (100, 4)
        assert np.all(idx[:, 1:] >= idx[:, :-1])  # rows are IOU
        assert np.unique(idx, axis=0).shape[0] == 100

    def test_lex_sorted(self, rng):
        idx = random_iou_pattern(3, 8, 50, rng)
        tuples = [tuple(r) for r in idx]
        assert tuples == sorted(tuples)

    def test_full_capacity(self, rng):
        total = sym_storage_size(2, 4)
        idx = random_iou_pattern(2, 4, total, rng)
        assert idx.shape[0] == total

    def test_over_capacity_rejected(self, rng):
        with pytest.raises(ValueError):
            random_iou_pattern(2, 3, 100, rng)

    def test_zero_requested(self, rng):
        assert random_iou_pattern(3, 5, 0, rng).shape == (0, 3)


class TestGenerators:
    def test_random_sparse_symmetric_deterministic(self):
        a = random_sparse_symmetric(4, 20, 50, seed=3)
        b = random_sparse_symmetric(4, 20, 50, seed=3)
        assert np.array_equal(a.indices, b.indices)
        assert np.allclose(a.values, b.values)

    def test_values_bounded_away_from_zero(self):
        x = random_sparse_symmetric(3, 10, 40, seed=0, value_low=0.5, value_high=2.0)
        assert x.values.min() >= 0.5
        assert x.values.max() < 2.0

    def test_planted_full_sampling_is_lowrank(self):
        x = planted_lowrank(3, 10, 2, None, noise=0.0, seed=1)
        assert x.unnz == sym_storage_size(3, 10)
        # mode-1 unfolding has rank <= 2
        dense = x.to_dense().reshape(10, -1)
        s = np.linalg.svd(dense, compute_uv=False)
        assert s[2] < 1e-10 * s[0]

    def test_planted_sparse_sampling(self):
        x = planted_lowrank(3, 15, 2, 50, noise=0.1, seed=2)
        assert x.unnz == 50


class TestRegistry:
    def test_table3_names(self):
        assert dataset_names() == (
            "L6",
            "L7",
            "L10",
            "H12",
            "contact-school",
            "trivago-clicks",
            "walmart-trips",
            "stackoverflow",
            "amazon-reviews",
        )

    def test_paper_stats_recorded(self):
        spec = DATASETS["walmart-trips"]
        assert (spec.paper_order, spec.paper_dim, spec.paper_unnz, spec.paper_rank) == (
            8,
            62_240,
            47_560,
            10,
        )

    def test_orders_faithful(self):
        for spec in DATASETS.values():
            assert spec.order == spec.paper_order

    def test_load_synthetic_shape(self):
        x = load_dataset("L6", seed=1)
        spec = DATASETS["L6"]
        assert (x.order, x.dim, x.unnz) == (spec.order, spec.dim, spec.unnz)

    def test_load_real_shape(self):
        x = load_dataset("contact-school", seed=1)
        spec = DATASETS["contact-school"]
        assert x.order == spec.order
        assert x.dim == spec.dim
        # hyperedge merging makes unnz approximate
        assert x.unnz >= spec.unnz * 0.6

    def test_load_deterministic(self):
        a = load_dataset("trivago-clicks", seed=4)
        b = load_dataset("trivago-clicks", seed=4)
        assert np.array_equal(a.indices, b.indices)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("netflix")


class TestIO:
    def test_roundtrip(self, small_tensor):
        back = tns_roundtrip(small_tensor)
        assert back.order == small_tensor.order
        assert back.dim == small_tensor.dim
        assert np.array_equal(back.indices, small_tensor.indices)
        assert np.allclose(back.values, small_tensor.values)

    def test_file_roundtrip(self, small_tensor, tmp_path):
        path = tmp_path / "tensor.tns"
        write_tns(small_tensor, path)
        back = read_tns(path)
        assert np.array_equal(back.indices, small_tensor.indices)

    def test_values_exact(self):
        x = SparseSymmetricTensor(
            2, 3, np.array([[0, 1]]), np.array([0.123456789012345678])
        )
        back = tns_roundtrip(x)
        assert back.values[0] == x.values[0]  # repr round-trips doubles

    def test_header_errors(self):
        with pytest.raises(ValueError, match="header"):
            read_tns(io.StringIO("# only a comment\n"))
        with pytest.raises(ValueError, match="header"):
            read_tns(io.StringIO("3 4\n"))
        with pytest.raises(ValueError, match="line 2: header"):
            read_tns(io.StringIO("# c\n2 three 1\n"))

    def test_field_count_error(self):
        with pytest.raises(ValueError, match="indices"):
            read_tns(io.StringIO("2 3 1\n1 2 3 4.0\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_value_rejected(self, value):
        text = f"2 3 2\n1 2 1.0\n2 3 {value}\n"
        with pytest.raises(ValueError, match=r"line 3: value \S+ is not finite"):
            read_tns(io.StringIO(text))

    @pytest.mark.parametrize("entry", ["1 b 1.0", "1 2 heavy"])
    def test_bad_entry_names_line(self, entry):
        with pytest.raises(ValueError, match="line 2: bad index or value"):
            read_tns(io.StringIO(f"2 3 1\n{entry}\n"))

    @pytest.mark.parametrize("entry", ["1 4 1.0", "0 2 1.0"])
    def test_out_of_range_index_names_line(self, entry):
        text = f"2 3 2\n1 2 1.0\n{entry}\n"
        with pytest.raises(ValueError, match=r"line 3: index out of range \[1, 3\]"):
            read_tns(io.StringIO(text))

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="claims"):
            read_tns(io.StringIO("2 3 2\n1 2 1.0\n"))

    def test_comments_and_blanks_skipped(self):
        text = "# c\n\n2 3 1\n# mid\n1 3 2.5\n"
        x = read_tns(io.StringIO(text))
        assert x.indices.tolist() == [[0, 2]]
        assert x.values.tolist() == [2.5]
