"""Property-based tests (hypothesis) for core invariants.

These pin down the paper's three propositions and the data-structure
invariants on randomly generated inputs rather than fixed examples:

* Property 1 — intermediate ``K`` tensors are fully symmetric;
* Property 2 — mode-1 TTM commutes with the expansion operator;
* Property 3 — ``EᵀE`` is diagonal with multinomial entries;
* IOU rank/unrank bijection, canonicalization idempotence, kernel-vs-dense
  agreement, norm consistency.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.dense_ref import dense_s3ttmc_matrix
from repro.core import s3ttmc
from repro.formats import SparseSymmetricTensor
from repro.symmetry.combinatorics import permutation_counts_array, sym_storage_size
from repro.symmetry.expansion import expand_compact, expansion_matrix
from repro.symmetry.iou import enumerate_iou, rank_iou_array
from repro.symmetry.permutations import canonicalize, distinct_permutations

COMMON = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def order_dim(draw, max_order=5, max_dim=6):
    order = draw(st.integers(2, max_order))
    dim = draw(st.integers(1, max_dim))
    return order, dim


@st.composite
def sparse_tensor(draw, max_order=5, max_dim=7, max_nnz=25):
    order = draw(st.integers(2, max_order))
    dim = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_nnz))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, dim, size=(n, order))
    vals = rng.uniform(-1.0, 1.0, size=n)
    vals[vals == 0] = 0.5
    idx, vals = canonicalize(idx, vals, combine="first")
    return SparseSymmetricTensor(order, dim, idx, vals, assume_canonical=True)


class TestIouBijection:
    @COMMON
    @given(order_dim())
    def test_rank_unrank_roundtrip(self, od):
        order, dim = od
        rows = enumerate_iou(order, dim)
        if rows.shape[0] == 0:
            return
        ranks = rank_iou_array(rows, dim)
        assert np.array_equal(ranks, np.arange(rows.shape[0]))

    @COMMON
    @given(order_dim(), st.integers(0, 2**31 - 1))
    def test_rank_of_sorted_random_tuples(self, od, seed):
        order, dim = od
        rng = np.random.default_rng(seed)
        tuples = np.sort(rng.integers(0, dim, size=(10, order)), axis=1)
        ranks = rank_iou_array(tuples, dim)
        # Unranking is indexing the lex enumeration.
        assert np.array_equal(enumerate_iou(order, dim)[ranks], tuples)


class TestPropertyOne:
    @COMMON
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_k_tensor_fully_symmetric(self, order, rank, seed):
        """K_m(j) = Σ over distinct orderings Π U(π_a, j_a) is symmetric."""
        rng = np.random.default_rng(seed)
        u = rng.random((6, rank))
        m = tuple(sorted(rng.integers(0, 6, size=order)))
        k = np.zeros((rank,) * order)
        for ordering in distinct_permutations(m):
            term = u[ordering[0]]
            for v in ordering[1:]:
                term = np.multiply.outer(term, u[v])
            k += term
        axes = list(range(order))
        for _ in range(5):
            perm = tuple(rng.permutation(axes))
            assert np.allclose(k, np.transpose(k, perm), atol=1e-12)

    @COMMON
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_compact_recurrence_equals_explicit_k(self, order, rank, seed):
        """The Alg.-1 compact recurrence reproduces the explicit K."""
        from repro.symmetry.tables import get_tables

        rng = np.random.default_rng(seed)
        u = rng.random((6, rank))
        m = tuple(sorted(rng.integers(0, 6, size=order)))
        # explicit dense K
        k = np.zeros((rank,) * order)
        for ordering in distinct_permutations(m):
            term = u[ordering[0]]
            for v in ordering[1:]:
                term = np.multiply.outer(term, u[v])
            k += term
        # compact recurrence over the multiset
        from collections import Counter

        def compact_k(multiset):
            multiset = tuple(sorted(multiset))
            if len(multiset) == 1:
                return u[multiset[0]].copy()
            tables = get_tables(len(multiset), rank)
            out = np.zeros(tables.size)
            for v in Counter(multiset).keys():
                rest = list(multiset)
                rest.remove(v)
                prev = compact_k(tuple(rest))
                out += u[v][tables.last_index] * prev[tables.parent_loc]
            return out

        compact = compact_k(m)
        full_from_compact = expand_compact(compact, order, rank).reshape(
            (rank,) * order
        )
        assert np.allclose(full_from_compact, k, atol=1e-10)


class TestPropertyTwoThree:
    @COMMON
    @given(st.integers(2, 4), st.integers(1, 4))
    def test_m_diagonal_multinomial(self, order, dim):
        e = expansion_matrix(order, dim)
        m = (e.T @ e).toarray()
        rows = enumerate_iou(order, dim)
        p = permutation_counts_array(rows).astype(float) if rows.size else np.zeros(0)
        assert np.allclose(m, np.diag(p))

    @COMMON
    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2**31 - 1))
    def test_expansion_commutes_with_mode1_ttm(self, sym_order, rank, seed):
        """Property 2: (Uᵀ Y_p) Eᵀ == Uᵀ (Y_p Eᵀ)."""
        rng = np.random.default_rng(seed)
        nrows = 5
        s = sym_storage_size(sym_order, rank)
        y_p = rng.random((nrows, s))
        u = rng.random((nrows, 3))
        left = expand_compact(u.T @ y_p, sym_order, rank)
        right = u.T @ expand_compact(y_p, sym_order, rank)
        assert np.allclose(left, right, atol=1e-10)


class TestKernelAgainstDense:
    @COMMON
    @given(sparse_tensor(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_s3ttmc_matches_dense(self, tensor, rank, seed):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1, 1, size=(tensor.dim, rank))
        got = s3ttmc(tensor, u).to_full_unfolding()
        ref = dense_s3ttmc_matrix(tensor, u)
        assert np.allclose(got, ref, atol=1e-8)

    @COMMON
    @given(sparse_tensor())
    def test_norm_matches_dense(self, tensor):
        dense = tensor.to_dense()
        assert np.isclose(tensor.norm_squared(), (dense**2).sum(), atol=1e-10)

    @COMMON
    @given(sparse_tensor())
    def test_expand_roundtrip(self, tensor):
        coo = tensor.expand()
        back_idx, back_vals = canonicalize(coo.indices, coo.values, combine="first")
        assert np.array_equal(back_idx, tensor.indices)
        assert np.allclose(back_vals, tensor.values)


class TestCanonicalization:
    @COMMON
    @given(
        st.integers(2, 4),
        st.integers(2, 6),
        st.integers(1, 30),
        st.integers(0, 2**31 - 1),
    )
    def test_idempotent_and_sorted(self, order, dim, n, seed):
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, dim, size=(n, order))
        vals = rng.random(n)
        a_idx, a_vals = canonicalize(idx, vals, combine="sum")
        tuples = [tuple(r) for r in a_idx]
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples)
        b_idx, b_vals = canonicalize(a_idx, a_vals)
        assert np.array_equal(a_idx, b_idx)
        assert np.allclose(a_vals, b_vals)
        # total mass preserved under "sum"
        assert np.isclose(a_vals.sum(), vals.sum())
